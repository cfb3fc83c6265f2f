#pragma once
// Per-run report generation, mirroring the detailed reports the paper
// publishes alongside its traces (Section 7: "a detailed report for each
// application run, including information such as I/O sizes, function
// counters, conflicts detected for each file, etc.").

#include <array>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pfsem/core/access.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/trace/bundle.hpp"

namespace pfsem::core {

/// Power-of-two request-size histogram (Darshan-style buckets).
struct SizeHistogram {
  // bucket k counts requests with size in [2^k, 2^(k+1)); bucket 0 also
  // holds zero/1-byte requests; the last bucket is open-ended.
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> counts{};

  void add(std::uint64_t size);
  [[nodiscard]] std::uint64_t total() const;
  /// Human label for bucket k ("4KiB-8KiB").
  [[nodiscard]] static std::string bucket_label(std::size_t k);
};

struct FileReport {
  std::string path;
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t read_bytes = 0, write_bytes = 0;
  std::uint64_t session_conflicts = 0, commit_conflicts = 0;
  FileLayout layout = FileLayout::Consecutive;
};

/// Degraded-mode summary of a fault-injected run: what the environment did
/// to the application and what survived. Plain counters so core stays
/// independent of pfsem::fault (apps::degraded_summary converts the
/// injector's stats into this).
struct DegradedSummary {
  std::uint64_t faults_injected = 0;  ///< transient errors raised
  std::uint64_t faults_eio = 0;
  std::uint64_t faults_enospc = 0;
  std::uint64_t retries = 0;           ///< retry attempts consumed
  std::uint64_t giveups = 0;           ///< ops that exhausted their budget
  std::uint64_t mpi_drops = 0;         ///< messages dropped + retransmitted
  std::uint64_t slowed_transfers = 0;  ///< transfers hit by OST slowdowns
  std::uint64_t delayed_writes = 0;    ///< writes hit by visibility spikes
  std::uint64_t writes_lost = 0;       ///< versions discarded by crashes
  std::vector<int> crashed_ranks;      ///< in crash order

  // Server fault domains (multi-server PfsCluster backend only; all zero
  // on single-server runs, and the report omits the block entirely then).
  std::uint64_t server_crashes = 0;
  std::uint64_t server_restarts = 0;
  std::uint64_t mds_failovers = 0;       ///< standby replicas promoted
  std::uint64_t failover_redirects = 0;  ///< client ops redirected (EHOSTDOWN)
  std::uint64_t degraded_reads = 0;      ///< reads with holes over dead OSTs
  std::vector<std::string> crashed_servers;  ///< "mds0", "ost3", ... in order

  /// A crash means some rank's trace stops early: per-file counters and
  /// conflict analysis describe a truncated run, not the intended one.
  [[nodiscard]] bool analysis_truncated() const {
    return !crashed_ranks.empty();
  }
};

/// Record counters, fed one record at a time by both build_report's scan
/// and the streaming analyzer.
struct RecordStats {
  std::map<trace::Func, std::uint64_t> function_counts;
  std::map<trace::Layer, std::uint64_t> layer_counts;
  SizeHistogram read_sizes;
  SizeHistogram write_sizes;
  SimTime lo = kTimeNever, hi = 0;

  void feed(const trace::Record& rec);
};

struct RunReport {
  int nranks = 0;
  std::uint64_t records = 0;
  /// Per traced function: call count.
  std::map<trace::Func, std::uint64_t> function_counts;
  /// Per layer: record count.
  std::map<trace::Layer, std::uint64_t> layer_counts;
  SizeHistogram read_sizes;
  SizeHistogram write_sizes;
  std::map<std::string, FileReport> files;
  HighLevelPattern pattern;
  TransitionMix local, global;
  /// Total simulated wall time covered by the trace.
  SimTime span = 0;
  /// Present when the run executed under fault injection.
  std::optional<DegradedSummary> degraded;
  /// Present when the run executed with observability on: the
  /// pre-rendered obs::summary() block (plain text so core stays
  /// independent of pfsem::obs, mirroring DegradedSummary).
  std::optional<std::string> obs_summary;
};

/// Build the full report for one run. `threads` is ignored:
/// bench_e2e/pipeline.cpp still passes one, and the parameter goes away
/// with ROADMAP item 8.
[[nodiscard]] RunReport build_report(const trace::TraceBundle& bundle,
                                     const AccessLog& log,
                                     const ConflictReport& conflicts,
                                     int threads = 1);

/// Render as human-readable text.
void print_report(const RunReport& report, std::ostream& os);

/// Render the degraded-mode section alone (print_report calls this when
/// the report carries one).
void print_degraded(const DegradedSummary& d, std::ostream& os);

}  // namespace pfsem::core
