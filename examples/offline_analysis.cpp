// Offline analysis workflow: capture a run's trace to a file, then load
// and analyze it in a separate pass — the Recorder-style capture/analyze
// split the paper's tooling uses.
//
//   $ ./offline_analysis             # capture to flash.pfsemtrc + analyze
//   $ ./offline_analysis trace.trc   # analyze a trace `pfsem trace` wrote

#include <fstream>
#include <iostream>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/metadata_census.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfsem;

  std::string path = argc > 1 ? argv[1] : "flash.pfsemtrc";
  if (argc <= 1) {
    // Capture phase: run FLASH-fbs and persist the bundle.
    std::cout << "capturing FLASH-fbs trace -> " << path << "\n";
    apps::AppConfig cfg;
    cfg.nranks = 64;
    const auto bundle = apps::run_app(*apps::find_app("FLASH-fbs"), cfg);
    std::ofstream os(path, std::ios::binary);
    trace::write_compact(bundle, os);
    if (!os) {
      std::cerr << "failed to write " << path << "\n";
      return 1;
    }
  }

  // Analysis phase: everything below works from the file alone.
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  const auto bundle = trace::read_chunks(is);
  std::cout << "loaded " << bundle.records.size() << " records from "
            << bundle.nranks << " ranks\n\n";

  const auto log = core::reconstruct_accesses(bundle);
  const auto report = core::detect_conflicts(log);
  const auto pattern = core::classify_high_level(log, bundle.nranks);
  const auto census = core::census_metadata(bundle);

  std::cout << "high-level pattern: " << pattern.xy << " "
            << core::to_string(pattern.layout) << " (dominant file "
            << pattern.dominant_file << ")\n";
  std::cout << "files touched: " << log.file_count()
            << ", potential-conflict pairs: " << report.potential_pairs << "\n";
  std::cout << "session-semantics conflict classes:"
            << (report.session.waw_s ? " WAW-S" : "")
            << (report.session.waw_d ? " WAW-D" : "")
            << (report.session.raw_s ? " RAW-S" : "")
            << (report.session.raw_d ? " RAW-D" : "")
            << (report.session.any() ? "" : " none") << "\n";
  std::cout << "metadata operations used: " << census.distinct_ops() << "\n";

  // Per-file conflict detail, like the per-application reports the paper
  // publishes alongside its traces.
  Table t({"file", "accesses", "session pairs", "commit pairs"});
  for (const FileId id : log.ids_by_path()) {
    const auto& fl = log.files[id];
    std::uint64_t nsess = 0, ncommit = 0;
    for (const auto& c : report.conflicts) {
      if (c.file != id) continue;
      nsess += c.under_session ? 1 : 0;
      ncommit += c.under_commit ? 1 : 0;
    }
    if (nsess + ncommit == 0) continue;
    t.add_row({std::string(log.path(id)), std::to_string(fl.accesses.size()),
               std::to_string(nsess), std::to_string(ncommit)});
  }
  if (t.rows() > 0) {
    std::cout << "\nfiles with conflicts:\n";
    t.print(std::cout);
  }
  return 0;
}
