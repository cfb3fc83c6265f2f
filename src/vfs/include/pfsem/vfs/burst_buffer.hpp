#pragma once
// Burst-buffer file system (UnifyFS / BurstFS class, paper Section 2.3).
//
// Writes land in the writing process's *node-local* buffer at NVMe speed;
// they become globally visible only on a commit (fsync/close), which
// publishes the write's extent metadata to a distributed key-value index
// — exactly the commit consistency semantics of Section 3.2, and exactly
// why these file systems cannot offer POSIX semantics cheaply.
//
// Cost model:
//   write          : node-local latency + bytes / local bandwidth
//   fsync / close  : one index-publish round trip per *extent batch*
//   read           : local if every byte visible to the reader was
//                    written on the reader's own node (or preloaded),
//                    otherwise a remote fetch over the interconnect
//   laminate       : publish everything and freeze (see Pfs::laminate)
//
// Visibility bookkeeping is delegated to an inner single-server vfs::Pfs
// (the PfsCluster preset) configured with the commit model, so the burst
// buffer inherits the verified semantics implementation and only layers
// placement + cost on top.

#include <memory>

#include "pfsem/vfs/pfs.hpp"

namespace pfsem::vfs {

struct BurstBufferConfig {
  int ranks_per_node = 8;
  /// Node-local NVMe characteristics.
  SimDuration local_latency = 5'000;  // 5 us
  double local_bytes_per_ns = 20.0;   // 20 GB/s per node
  /// Publishing committed extents to the distributed index.
  SimDuration index_publish_latency = 40'000;  // 40 us
  /// Fetching remote (other-node) data over the interconnect.
  SimDuration remote_latency = 15'000;  // 15 us
  double remote_bytes_per_ns = 10.0;    // 10 GB/s
  /// Namespace operations (metadata service).
  SimDuration meta_latency = 20'000;  // 20 us
};

/// Statistics for the burst-buffer ablation benches.
struct BurstBufferStats {
  std::uint64_t local_writes = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t index_publishes = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_bytes = 0;
};

class BurstBufferPfs final : public FileSystem {
 public:
  explicit BurstBufferPfs(BurstBufferConfig cfg = {});
  ~BurstBufferPfs() override;

  [[nodiscard]] const BurstBufferConfig& config() const { return cfg_; }
  [[nodiscard]] const BurstBufferStats& stats() const { return stats_; }
  [[nodiscard]] SimDuration meta_latency() const override {
    return cfg_.meta_latency;
  }
  /// The inner commit-semantics store (for oracle checks in tests).
  [[nodiscard]] Pfs& inner() { return *inner_; }

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

  MetaResult stat(const std::string& path, SimTime now) override;
  MetaResult access(const std::string& path, SimTime now) override;
  MetaResult unlink(const std::string& path, SimTime now) override;
  MetaResult mkdir(const std::string& path, SimTime now) override;
  MetaResult rename(const std::string& from, const std::string& to,
                    SimTime now) override;

  /// Stage pre-existing input data (replicated to every node's view).
  void preload(const std::string& path, Offset size) override {
    inner_->preload(path, size);
  }
  /// Faults are injected by the inner store (shared visibility bookkeeping);
  /// this backend only skips its placement stats on failed attempts.
  void set_fault_injector(fault::Injector* injector) override {
    inner_->set_fault_injector(injector);
  }
  /// Crash durability is the inner commit model's: node-local writes not
  /// yet published to the index die with the process.
  std::vector<VersionTag> crash_rank(Rank r, SimTime now) override {
    return inner_->crash_rank(r, now);
  }
  /// Lamination: publish + freeze (Section 3.2).
  MetaResult laminate(const std::string& path, SimTime now);

 private:
  [[nodiscard]] int node_of(Rank r) const { return r / cfg_.ranks_per_node; }
  [[nodiscard]] SimDuration local_transfer(std::uint64_t bytes) const;
  [[nodiscard]] SimDuration remote_transfer(std::uint64_t bytes) const;

  BurstBufferConfig cfg_;
  std::unique_ptr<Pfs> inner_;
  BurstBufferStats stats_;
};

}  // namespace pfsem::vfs
