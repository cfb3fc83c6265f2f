#pragma once
// Application registry: the 17 studied applications/benchmarks in all 25
// (application, I/O library) configurations of the paper (Tables 2-5),
// each as a synthetic workload model that reproduces the application's
// documented I/O structure, together with the paper's expected results
// for that configuration so benches and tests can compare shape.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/apps/harness.hpp"
#include "pfsem/trace/bundle.hpp"

namespace pfsem::apps {

/// Ground truth from the paper for one configuration.
struct Expectation {
  /// Table 3 high-level class ("" when the paper's table omits the config).
  std::string xy;
  std::string layout;  ///< "consecutive" / "strided" / "strided-cyclic"
  /// Table 4: conflict classes under session semantics.
  bool waw_s = false, waw_d = false, raw_s = false, raw_d = false;
  /// Section 6.3: do this config's conflicts disappear under commit
  /// semantics? (True only for FLASH.)
  bool commit_clears = false;

  [[nodiscard]] bool any_conflict() const {
    return waw_s || waw_d || raw_s || raw_d;
  }
};

struct AppInfo {
  std::string name;   ///< configuration name, e.g. "LAMMPS-NetCDF"
  std::string app;    ///< application, e.g. "LAMMPS"
  std::string iolib;  ///< "POSIX", "MPI-IO", "HDF5", "NetCDF", "ADIOS", "Silo"
  std::string description;  ///< Table 5 style workload description
  Expectation expect;
  std::function<void(Harness&)> run;
};

/// All configurations, in the paper's presentation order.
[[nodiscard]] const std::vector<AppInfo>& registry();

/// Lookup by configuration name; nullptr if unknown.
[[nodiscard]] const AppInfo* find_app(std::string_view name);

/// Fault-injection wiring for run_app: the plan, the fault seed (drives the
/// injector's RNG — same plan + seed reproduces the run bit-identically),
/// and the iolib retry policy.
struct FaultSetup {
  fault::FaultPlan plan;
  std::uint64_t seed = 1;
  iolib::RetryPolicy retry;
};

/// Convenience: build a harness on `backend`, run the configuration,
/// return its trace. Pass `faults` to run under fault injection;
/// `stats_out` (optional) receives the degraded-mode statistics after the
/// run. With no faults the bundle is byte-identical for every topology
/// (the topology oracle, tests/test_cluster.cpp).
[[nodiscard]] trace::TraceBundle run_app(const AppInfo& info, AppConfig cfg = {},
                                         Backend backend = {},
                                         std::vector<sim::ClockModel> clocks = {},
                                         const FaultSetup* faults = nullptr,
                                         fault::FaultStats* stats_out = nullptr);

/// Streaming counterpart of run_app: records stream into `sink` in
/// chunks of cfg.stream_chunk_records as the run progresses, and only
/// the StreamMeta comes back — the harness (and the simulated fs) is
/// destroyed before the caller analyzes, so capture memory and analysis
/// memory never coexist. The caller finishes the sink afterwards
/// (ChunkWriter::finish(meta) for the spill framing).
[[nodiscard]] trace::StreamMeta run_app_stream(
    const AppInfo& info, trace::StreamSink& sink, AppConfig cfg = {},
    Backend backend = {}, std::vector<sim::ClockModel> clocks = {},
    const FaultSetup* faults = nullptr,
    fault::FaultStats* stats_out = nullptr);

}  // namespace pfsem::apps
