#pragma once
// Simulated MPI communication for the DES engine.
//
// A World hosts `nranks` simulated processes placed on nodes
// (ranks_per_node each, matching the paper's 8x8 / 32x32 job geometries).
// It provides the communication operations the studied applications and
// I/O libraries need — barrier, point-to-point send/recv with tag
// matching, and rooted/rootless collectives over arbitrary rank groups —
// with a simple latency/bandwidth cost model and deterministic per-rank
// completion jitter, so that per-rank timestamps spread realistically.
//
// Every matched operation is appended to the trace's comm log (encoded
// as it completes); the happens-before checker (core/happens_before.hpp)
// consumes those events, decoded, to validate that conflicting I/O is
// synchronized, as in Section 5.2 of the paper.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "pfsem/sim/engine.hpp"
#include "pfsem/trace/collector.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem::fault {
class Injector;
}  // namespace pfsem::fault

namespace pfsem::mpi {

/// Sorted set of participating ranks in a collective.
using Group = std::vector<Rank>;

/// Position of `r` in the sorted, duplicate-free group `g`; throws
/// pfsem::Error if `r` is not a member. O(1) when `g[r] == r` (the world
/// and its identity prefixes) or when `g` is a contiguous range, a binary
/// search otherwise — so per-member state of a world-sized group can be
/// indexed without an O(log P) term per operation.
[[nodiscard]] std::size_t group_pos(const Group& g, Rank r);

struct WorldConfig {
  int nranks = 64;
  int ranks_per_node = 8;
  /// One-way point-to-point latency.
  SimDuration p2p_latency = 2'000;  // 2 us
  /// Messages up to this size complete eagerly at the sender (buffered
  /// copy); larger sends rendezvous with the matching receive.
  std::uint64_t eager_threshold = 64 * 1024;
  /// Network bandwidth for message payloads.
  double net_bytes_per_ns = 10.0;  // 10 GB/s
  /// Fixed cost to enter/exit a collective, plus a per-hop cost times
  /// ceil(log2(P)) for the fan-in/fan-out tree.
  SimDuration collective_base = 3'000;
  SimDuration collective_hop = 1'500;
  /// Max deterministic per-rank jitter added to collective exits. This is
  /// what spreads "simultaneous" post-barrier activity across ranks.
  SimDuration exit_jitter = 4'000;
  std::uint64_t seed = 0x5eed;
};

class World {
 public:
  World(sim::Engine& engine, trace::Collector& collector, WorldConfig cfg);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] trace::Collector& collector() { return *collector_; }
  [[nodiscard]] int nranks() const { return cfg_.nranks; }
  [[nodiscard]] int node_of(Rank r) const { return r / cfg_.ranks_per_node; }
  [[nodiscard]] const WorldConfig& config() const { return cfg_; }

  /// Group containing every rank.
  [[nodiscard]] const Group& all() const { return all_; }

  /// Attach a fault injector (nullptr detaches; not owned). Messages may
  /// then be dropped-and-retransmitted (extra delivery delay), and any
  /// operation entered by a crashed rank throws sim::TaskKilled.
  void set_fault_injector(fault::Injector* injector) { injector_ = injector; }

  // --- point-to-point -------------------------------------------------
  /// Blocking send; completes once the message is delivered (rendezvous).
  [[nodiscard]] sim::Task<void> send(Rank from, Rank to, int tag,
                                     std::uint64_t bytes);
  /// Blocking receive matching (from, tag); returns the payload size.
  [[nodiscard]] sim::Task<std::uint64_t> recv(Rank me, Rank from, int tag);

  // --- collectives ----------------------------------------------------
  // Each must be called exactly once per participating rank, in the same
  // order on every rank (normal SPMD discipline); a kind/root mismatch
  // between ranks joining the same collective throws.
  [[nodiscard]] sim::Task<void> barrier(Rank me);
  [[nodiscard]] sim::Task<void> barrier(Rank me, const Group& group);
  [[nodiscard]] sim::Task<void> bcast(Rank me, Rank root, std::uint64_t bytes);
  [[nodiscard]] sim::Task<void> reduce(Rank me, Rank root, std::uint64_t bytes);
  [[nodiscard]] sim::Task<void> allreduce(Rank me, std::uint64_t bytes);
  [[nodiscard]] sim::Task<void> gather(Rank me, Rank root, std::uint64_t bytes_each);
  [[nodiscard]] sim::Task<void> gather(Rank me, Rank root, std::uint64_t bytes_each,
                                       const Group& group);
  [[nodiscard]] sim::Task<void> allgather(Rank me, std::uint64_t bytes_each);
  [[nodiscard]] sim::Task<void> scatter(Rank me, Rank root, std::uint64_t bytes_each);
  [[nodiscard]] sim::Task<void> alltoall(Rank me, std::uint64_t bytes_each);

  /// Generic collective over an explicit group (used by the wrappers).
  [[nodiscard]] sim::Task<void> collective(Rank me, trace::CollectiveKind kind,
                                           Rank root, std::uint64_t bytes,
                                           const Group& group);

 private:
  struct PendingCollective;
  struct Mailbox;

  PendingCollective& join_collective(const Group& group, Rank me,
                                     std::size_t pos,
                                     trace::CollectiveKind kind, Rank root,
                                     std::uint64_t bytes, SimTime t_enter);
  /// The pending queue this group's collectives park in (world-sized
  /// groups get the dedicated O(1) slot).
  std::deque<std::unique_ptr<PendingCollective>>& queue_for(const Group& group);
  void complete_collective(const Group& group, PendingCollective& p);
  [[nodiscard]] SimDuration transfer_time(std::uint64_t bytes) const;
  /// Fail-stop check at an operation boundary: a crashed rank unwinds.
  void check_alive(Rank r) const;

  sim::Engine* engine_;
  trace::Collector* collector_;
  WorldConfig cfg_;
  Group all_;
  Rng rng_;
  /// Pending queue for full-world collectives. A sorted duplicate-free
  /// group the size of the world IS the world, so these never need the
  /// content-keyed map below — which matters: a map lookup keyed by the
  /// whole member vector costs O(nranks) per joining rank, turning every
  /// world collective into O(nranks^2).
  std::deque<std::unique_ptr<PendingCollective>> world_pending_;
  std::map<Group, std::deque<std::unique_ptr<PendingCollective>>> pending_;
  std::map<std::tuple<Rank, Rank, int>, std::unique_ptr<Mailbox>> mailboxes_;
  fault::Injector* injector_ = nullptr;  ///< not owned; nullptr = no faults
};

}  // namespace pfsem::mpi
