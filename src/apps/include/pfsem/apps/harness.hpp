#pragma once
// Run harness: wires one simulated application run together — DES engine,
// MPI world, PFS under test, trace collector — and launches one coroutine
// per rank behind a startup barrier (the paper's time-0 normalization
// point). The result of a run is a TraceBundle, the input of pfsem::core.

#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "pfsem/core/report.hpp"
#include "pfsem/fault/injector.hpp"
#include "pfsem/iolib/context.hpp"
#include "pfsem/mpi/world.hpp"
#include "pfsem/sim/clock.hpp"
#include "pfsem/sim/engine.hpp"
#include "pfsem/trace/collector.hpp"
#include "pfsem/util/rng.hpp"
#include "pfsem/vfs/filesystem.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem::apps {

struct AppConfig {
  int nranks = 64;
  int ranks_per_node = 8;
  /// Number of simulated time steps (apps derive dump cadence from this).
  int steps = 100;
  int checkpoint_every = 20;
  /// Nominal per-rank payload of one checkpoint/dump. Scaled down from the
  /// paper's runs (e.g. pF3D's 2 GB/process) to keep traces tractable; the
  /// access *structure* is what the analysis consumes.
  std::uint64_t bytes_per_rank = 256 * 1024;
  std::uint64_t seed = 42;
  /// Event scheduler. Bucketed is the production scheduler; Heap is the
  /// test-only differential oracle — both must produce byte-identical
  /// bundles (tests/test_capture_diff.cpp).
  sim::SchedulerKind scheduler = sim::SchedulerKind::Bucketed;
  /// Streaming capture (nullptr = materialize, the default): the
  /// collector hands records to this sink in batches of
  /// `stream_chunk_records` instead of accumulating a bundle. Finish the
  /// run with finish_stream() instead of finish(); registry.hpp's
  /// run_app_stream wires both ends. Non-owning.
  trace::StreamSink* stream_sink = nullptr;
  /// 4096 records (256 KiB pending) keep chunk framing below measurement
  /// noise (docs/performance.md, "Chunk-size guidance").
  std::size_t stream_chunk_records = 4096;
  /// Observability context (nullptr = off, the default). Non-owning: the
  /// driver (CLI, test) owns the Run; the harness wires it into the
  /// engine, collector, injector, and every façade built from ctx(),
  /// and publishes the vfs.* gauges after run().
  obs::Run* obs = nullptr;
};

/// The simulated PFS a run uses, always a vfs::PfsCluster. A PfsConfig
/// selects the single-server preset (vfs::Pfs): server events in a fault
/// plan are rejected and no per-server gauges are published. A
/// ClusterConfig names the topology (docs/topology.md) and enables both.
using Backend = std::variant<vfs::PfsConfig, vfs::ClusterConfig>;

class Harness {
 public:
  explicit Harness(AppConfig cfg, Backend backend = {},
                   std::vector<sim::ClockModel> clocks = {});
  /// Run against a custom file-system backend (e.g. vfs::BurstBufferPfs).
  Harness(AppConfig cfg, std::unique_ptr<vfs::FileSystem> fs,
          std::vector<sim::ClockModel> clocks = {});

  [[nodiscard]] const AppConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] mpi::World& world() { return world_; }
  /// The file system under test.
  [[nodiscard]] vfs::FileSystem& fs() { return *fs_; }
  /// The PFS backend (throws if a custom backend was supplied).
  [[nodiscard]] vfs::PfsCluster& pfs();
  [[nodiscard]] trace::Collector& collector() { return collector_; }
  [[nodiscard]] iolib::IoContext ctx() {
    return {&engine_, &world_, fs_.get(), &collector_, injector_.get(),
            retry_, cfg_.obs};
  }

  /// Arm fault injection for this run (call before run()): builds the
  /// injector and wires it into the file system and the MPI world. run()
  /// then schedules the plan's crashes.
  void set_faults(const fault::FaultPlan& plan, std::uint64_t fault_seed);
  /// Retry policy handed to every façade built from ctx().
  void set_retry_policy(iolib::RetryPolicy policy) {
    retry_ = std::move(policy);
  }
  /// nullptr when no faults are armed.
  [[nodiscard]] fault::Injector* injector() { return injector_.get(); }

  /// Stage an input file before the run (visible under every model).
  void preload(const std::string& path, Offset size) {
    fs_->preload(path, size);
  }

  /// A compute phase: `base` plus a small deterministic per-rank jitter,
  /// so ranks drift apart the way real time steps do. Checks for a crash
  /// and draws the jitter at the call, so co_await the result directly.
  [[nodiscard]] sim::Engine::Delay compute(Rank r, SimDuration base);

  /// Deterministic per-rank value in [lo, hi] for workload shaping
  /// (irregular block sizes etc.); depends only on (seed, salt, r).
  [[nodiscard]] std::uint64_t shaped(std::uint64_t salt, Rank r,
                                     std::uint64_t lo, std::uint64_t hi) const;

  /// Spawn `program(r)` for every rank behind a startup barrier and run
  /// the simulation to completion.
  void run(const std::function<sim::Task<void>(Rank)>& program);

  /// Take the captured trace (call after run()).
  [[nodiscard]] trace::TraceBundle finish() { return collector_.take(); }

  /// Finish a streaming run (cfg.stream_sink != nullptr): flush the tail
  /// chunk to the sink and take everything except the records.
  [[nodiscard]] trace::StreamMeta finish_stream() {
    return collector_.take_stream();
  }

 private:
  AppConfig cfg_;
  trace::Collector collector_;
  sim::Engine engine_;
  std::unique_ptr<vfs::FileSystem> fs_;
  vfs::PfsCluster* pfs_ = nullptr;  // nullptr for a custom backend
  bool servers_ = false;  // built from a ClusterConfig (see Backend)
  mpi::World world_;
  std::vector<Rng> rank_rngs_;
  std::unique_ptr<fault::Injector> injector_;
  iolib::RetryPolicy retry_;
};

/// Convert the injector's run stats into the report's degraded summary
/// (lives here so pfsem::core stays independent of pfsem::fault).
[[nodiscard]] core::DegradedSummary degraded_summary(
    const fault::FaultStats& stats);

}  // namespace pfsem::apps
