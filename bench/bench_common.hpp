#pragma once
// Shared helpers for the table/figure reproduction binaries: run one
// application configuration at the paper's scale (64 ranks, 8 per node)
// and hand back the full analysis.

#include <iostream>
#include <string>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/metadata_census.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/util/table.hpp"

namespace pfsem::bench {

inline apps::AppConfig paper_scale() {
  apps::AppConfig cfg;
  cfg.nranks = 64;
  cfg.ranks_per_node = 8;  // the paper's 8 nodes x 8 ppn geometry
  cfg.bytes_per_rank = 256 * 1024;
  return cfg;
}

struct Analysis {
  trace::TraceBundle bundle;
  core::AccessLog log;
  core::ConflictReport report;
  core::HighLevelPattern pattern;
  core::TransitionMix local;
  core::TransitionMix global;
  core::MetadataCensus census;
  core::Advice advice;
  core::RaceCheck races;
};

inline Analysis analyze_app(const apps::AppInfo& info,
                            apps::AppConfig cfg = paper_scale(),
                            vfs::PfsConfig pfs_cfg = {},
                            std::vector<sim::ClockModel> clocks = {}) {
  Analysis a;
  a.bundle = apps::run_app(info, cfg, pfs_cfg, std::move(clocks));
  a.log = core::reconstruct_accesses(a.bundle);
  a.report = core::detect_conflicts(a.log);
  a.pattern = core::classify_high_level(a.log, cfg.nranks);
  a.local = core::local_pattern(a.log);
  a.global = core::global_pattern(a.log);
  a.census = core::census_metadata(a.bundle);
  const core::HappensBefore hb(trace::decode_comm(a.bundle.comm, cfg.nranks),
                               cfg.nranks);
  a.races = core::validate_synchronization(a.report, hb);
  a.advice = core::advise(a.report, &hb);
  return a;
}

inline std::string check(bool v) { return v ? "Y" : ""; }
inline std::string match_mark(bool ok) { return ok ? "ok" : "DIFF"; }

inline void heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

}  // namespace pfsem::bench
