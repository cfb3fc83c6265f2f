#pragma once
// Shared value types of the simulated file systems: consistency models,
// configuration, per-operation results, and traffic counters, shared by
// the FileSystem interface, the PFS backend (cluster.hpp) and the burst
// buffer.
//
// The four consistency models of Section 3 of the paper:
//
//   Strong   — POSIX sequential consistency: a write is visible to every
//              process the moment it returns (Lustre/GPFS/BeeGFS class).
//   Commit   — writes become globally visible when the writer executes a
//              commit (fsync/close) (UnifyFS/BurstFS/SymphonyFS class).
//   Session  — writes become visible to a reader only if the writer closed
//              the file before the reader opened it (NFS/Gfarm-BB class).
//   Eventual — writes propagate after a configurable delay with no
//              synchronization at all (PLFS/echofs class).
//
// Data buffers are never stored: each write gets a unique VersionTag and
// reads return the tags visible to the reading process, so tests can tell
// exactly *which* write a read observed and detect stale data. A read that
// would return different bytes than POSIX-strong semantics is observable
// staleness — the ground truth the conflict detector predicts.

#include <cstdint>
#include <string>
#include <vector>

#include "pfsem/util/extent.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::vfs {

enum class ConsistencyModel : std::uint8_t { Strong, Commit, Session, Eventual };

[[nodiscard]] const char* to_string(ConsistencyModel m);

/// Unique id of a write operation; 0 denotes never-written ("hole") bytes.
using VersionTag = std::uint64_t;

struct PfsConfig {
  ConsistencyModel model = ConsistencyModel::Strong;
  /// Eventual model: delay until a write is visible to other processes.
  SimDuration eventual_propagation = 50'000'000;  // 50 ms
  /// Metadata-server round trip (open/close/stat/...).
  SimDuration meta_latency = 30'000;  // 30 us
  /// Per-data-op base latency (client->OSS round trip).
  SimDuration data_latency = 50'000;  // 50 us
  /// Aggregate (client-link) data bandwidth, whatever the OST count.
  double bytes_per_ns = 5.0;  // 5 GB/s
  /// Extra latency charged per lock message under the strong model.
  SimDuration lock_latency = 10'000;  // 10 us
  /// Byte granularity of distributed locks (strong model only).
  Offset lock_block = 1u << 20;
  /// Fold settled writes into a flat per-file base extent map at commit
  /// points (close/fsync/laminate) and on history growth, bounding
  /// per-file state by live (unsettled or conflicting) writes instead of
  /// total writes. Bit-exact for every read under every model
  /// (detail::compact_file); off only for A/B measurement.
  bool compaction = true;
};

/// Extent-compaction traffic (detail::compact_file), per backend.
struct CompactionStats {
  std::uint64_t folded_writes = 0;  ///< writes folded into base maps
  std::uint64_t passes = 0;         ///< compaction passes that folded > 0
};

/// Per-OST traffic counters (requests and bytes served), for the striping
/// bench and the per-server gauges. `total_bytes` is the running sum
/// across OSTs, kept so per-op cost snapshots (CostSnapshot) are O(1)
/// instead of O(OSTs).
struct OstStats {
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> bytes;
  std::uint64_t total_bytes = 0;
};

/// O(1) snapshot of a backend's cumulative semantic-cost counters. The
/// iolib facades snapshot before/after each call and attribute the delta
/// to that call's ledger row (obs/ledger.hpp); backends without a lock/
/// striping cost model (the burst buffer) report zeros via the default.
struct CostSnapshot {
  std::uint64_t lock_requests = 0;
  std::uint64_t lock_revocations = 0;
  std::uint64_t meta_rpcs = 0;
  std::uint64_t ost_bytes = 0;
};

/// A slice of a read result: which write (and writer) produced these bytes.
struct ReadExtent {
  Extent ext;
  VersionTag version = 0;  ///< 0 = hole (never written / not yet visible)
  Rank writer = kNoRank;
};

// Every result carries `err`, a simulated environment errno (values from
// pfsem/fault/plan.hpp; 0 = none). `err != 0` marks a *transient
// environment fault* (injected EIO/ENOSPC, laminated-file EROFS) that the
// iolib retry policy may absorb; a semantic failure (ret/fd == -1 with
// err == 0, e.g. opening a missing file) is part of the modelled behaviour
// and is never retried.
struct OpenResult {
  int fd = -1;
  SimDuration cost = 0;
  int err = 0;
};
struct WriteResult {
  VersionTag version = 0;
  Offset offset = 0;  ///< where the write landed (relevant for O_APPEND)
  SimDuration cost = 0;
  int err = 0;
};
struct ReadResult {
  std::vector<ReadExtent> extents;
  Offset offset = 0;
  std::uint64_t bytes = 0;  ///< bytes actually read (clipped at EOF)
  SimDuration cost = 0;
  int err = 0;
};
struct MetaResult {
  std::int64_t ret = 0;  ///< 0/-1 success/failure, or a size for stat
  SimDuration cost = 0;
  int err = 0;
};

/// Counters for the strong-model lock cost ablation (bench_perf_vfs).
struct LockStats {
  std::uint64_t requests = 0;     ///< lock acquisitions sent to the MDS
  std::uint64_t revocations = 0;  ///< conflicting holders called back
  std::uint64_t meta_ops = 0;     ///< metadata-server round trips
};

}  // namespace pfsem::vfs
