#pragma once
// OrangeFS/PVFS2-style multi-server parallel file system with server
// fault domains (docs/topology.md).
//
// Topology: N metadata servers shard the namespace by path hash (FNV-1a);
// M data servers (OSTs) hold file data striped in power-of-two `stripe`
// blocks (block b lives on OST b % M). Clients are stateless lookup →
// handle machines: the open() round trip resolves the path on its
// metadata shard, and data operations then go straight to the OSTs —
// which is why data I/O keeps working while a metadata server is down.
//
// Fault domains (driven by fault plan crash_mds / crash_ost /
// restart_server events, applied by the harness at their simulated
// instants):
//  - MDS crash: each shard has `mds_replicas - 1` standby replicas. The
//    first client metadata op that hits the dead primary observes
//    EHOSTDOWN and promotes a standby; the iolib failover retry redirects
//    the op, which then succeeds — degraded but alive. When no replica
//    remains, every op on the shard fails EHOSTDOWN until the client's
//    failover budget is exhausted: a loud permanent failure.
//    Commit points that cannot surface an errno (close, laminate) ride
//    the promoted replica silently; with no replica left their metadata
//    effect (commit/publish) is lost.
//  - OST crash: writes still succeed (client write-behind; the data
//    replays when the server returns), but reads resolve normally and
//    then *punch holes* over stripe blocks served by a down OST — a
//    degraded read that reports exactly which bytes are unavailable.
//    restart_server makes those stripes readable again.
//  - Network partitions (fault plan `partition:`) are model-level: the
//    shared visibility core defers cross-partition keys to the heal time
//    (file_core.hpp), so split-brain staleness is observable under every
//    consistency model, on this backend and on single-server Pfs alike.
//
// Differential oracle: with no faults, every operation has the same
// result and the same simulated cost as single-server Pfs regardless of
// (N, M, stripe) — semantics come from the shared file core, metadata
// ops cost one meta_latency wherever the shard lives, and transfers are
// client-link-bound (PfsConfig::bytes_per_ns is the aggregate), so trace
// bundles and reports are byte-identical across topologies.

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/path_table.hpp"
#include "pfsem/vfs/file_core.hpp"
#include "pfsem/vfs/filesystem.hpp"
#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::obs {
struct Run;
}  // namespace pfsem::obs

namespace pfsem::vfs {

struct ClusterConfig {
  /// Consistency model and cost knobs; stripe_count/stripe_size are
  /// ignored (the cluster topology below replaces them).
  PfsConfig base;
  int mds_count = 1;       ///< metadata servers (namespace shards)
  int ost_count = 1;       ///< data servers
  Offset stripe = 64u << 10;  ///< power-of-two stripe block (64 KiB)
  int mds_replicas = 2;    ///< primary + standbys per metadata shard
};

/// Availability and traffic of one metadata shard.
struct MdsState {
  bool up = true;
  int standbys = 0;            ///< standby replicas still available
  std::uint64_t meta_ops = 0;  ///< ops served by this shard
  std::uint64_t failovers = 0; ///< standby promotions on this shard
};

/// Availability of one data server (traffic lives in OstStats).
struct OstState {
  bool up = true;
};

class PfsCluster final : public FileSystem {
 public:
  explicit PfsCluster(ClusterConfig cfg = {});
  ~PfsCluster() override;
  PfsCluster(const PfsCluster&) = delete;
  PfsCluster& operator=(const PfsCluster&) = delete;

  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] const LockStats& lock_stats() const { return locks_; }
  [[nodiscard]] const CompactionStats& compaction_stats() const {
    return compaction_;
  }
  [[nodiscard]] const OstStats& ost_stats() const { return osts_; }
  [[nodiscard]] const std::vector<MdsState>& mds_states() const { return mds_; }
  [[nodiscard]] const std::vector<OstState>& ost_states() const { return ost_; }
  [[nodiscard]] SimDuration meta_latency() const override {
    return cfg_.base.meta_latency;
  }
  [[nodiscard]] CostSnapshot cost_snapshot() const override {
    return {locks_.requests, locks_.revocations, locks_.meta_ops,
            osts_.total_bytes};
  }

  /// Attach an observability context (nullptr = off, the default). Used
  /// only for counter-track samples (vfs.compacted_writes over sim time).
  void set_observer(obs::Run* run) { orun_ = run; }

  /// Metadata shard serving `path` (FNV-1a hash mod mds_count).
  [[nodiscard]] int shard_of(std::string_view path) const;

  // --- file data operations (see FileSystem) ----------------------------
  OpenResult open(Rank r, const std::string& path, int flags,
                  SimTime now) override;
  MetaResult close(Rank r, int fd, SimTime now) override;
  WriteResult write(Rank r, int fd, std::uint64_t count, SimTime now) override;
  WriteResult pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                     SimTime now) override;
  ReadResult read(Rank r, int fd, std::uint64_t count, SimTime now) override;
  ReadResult pread(Rank r, int fd, Offset off, std::uint64_t count,
                   SimTime now) override;
  MetaResult lseek(Rank r, int fd, std::int64_t delta, int whence,
                   SimTime now) override;
  MetaResult fsync(Rank r, int fd, SimTime now) override;
  MetaResult ftruncate(Rank r, int fd, Offset length, SimTime now) override;

  /// UnifyFS-style lamination; a commit point, so it rides a promoted
  /// replica silently (never fails with EHOSTDOWN).
  MetaResult laminate(const std::string& path, SimTime now);

  // --- namespace / metadata operations ----------------------------------
  MetaResult stat(const std::string& path, SimTime now) override;
  MetaResult access(const std::string& path, SimTime now) override;
  MetaResult unlink(const std::string& path, SimTime now) override;
  MetaResult mkdir(const std::string& path, SimTime now) override;
  MetaResult rename(const std::string& from, const std::string& to,
                    SimTime now) override;

  void preload(const std::string& path, Offset size) override;

  // --- fault injection (pfsem::fault) ------------------------------------
  void set_fault_injector(fault::Injector* injector) override;
  std::vector<VersionTag> crash_rank(Rank r, SimTime now) override;

  /// Apply one server crash/restart at its simulated instant (called from
  /// the harness's per-event killable roots, in deterministic DES order).
  void apply_server_event(const fault::ServerEvent& ev, SimTime now);

  // --- introspection (tests & benches) ----------------------------------
  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] Offset file_size(const std::string& path) const;
  [[nodiscard]] std::vector<std::string> list_files() const;
  [[nodiscard]] std::vector<ReadExtent> strong_view(const std::string& path,
                                                    Offset off,
                                                    std::uint64_t count) const;

 private:
  using File = detail::FileCore;
  using OpenFile = detail::OpenFile;

  [[nodiscard]] detail::ResolveEnv env() const {
    return {cfg_.base.model, cfg_.base.eventual_propagation, injector_};
  }
  std::shared_ptr<File> lookup(const std::string& path) const;
  std::shared_ptr<File>& slot(const std::string& path);
  /// Availability check + per-shard accounting for one metadata op. 0 =
  /// served. A dead primary with a standby promotes it; `can_fail` ops
  /// observe EHOSTDOWN once (the client failover redirects), commit
  /// points (can_fail = false) ride the new primary silently.
  int mds_route(int shard, SimTime now, bool can_fail = true);
  SimDuration charge_locks(OpenFile& of, Rank r, Extent ext, bool exclusive);
  SimDuration charge_transfer(Extent ext, SimTime now);
  /// Replace resolved bytes on down-OST stripe blocks with holes; true if
  /// the range touched a down OST.
  bool punch_dead_stripes(std::vector<ReadExtent>& extents, Extent range);
  int inject(fault::OpClass c, Rank r, SimTime now);
  /// Amortized extent-compaction trigger (cfg_.base.compaction); called
  /// at commit points and after writes.
  void maybe_compact(File& f, SimTime now);

  ClusterConfig cfg_;
  trace::PathTable names_;
  std::vector<std::shared_ptr<File>> files_;
  std::set<FileId> dirs_;
  detail::FdTable open_files_;
  VersionTag next_version_ = 1;
  LockStats locks_;
  OstStats osts_;
  CompactionStats compaction_;
  std::vector<MdsState> mds_;
  std::vector<OstState> ost_;
  bool any_ost_down_ = false;  ///< fast-path guard for punch_dead_stripes
  fault::Injector* injector_ = nullptr;  ///< not owned; nullptr = no faults
  obs::Run* orun_ = nullptr;             ///< not owned; nullptr = obs off
};

}  // namespace pfsem::vfs
