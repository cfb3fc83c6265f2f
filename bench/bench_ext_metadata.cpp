// EXTENSION bench (paper Section 7 future work): metadata-operation
// consistency requirements. For every configuration, count cross-process
// namespace dependencies (a rank observing a name another rank created/
// removed), split into hard (open-existing/readdir — correctness depends
// on visibility) and soft (successful stat/access probes — tolerate
// ENOENT and retry), and check each against MPI happens-before.
//
// Verdict per app: can it run on a PFS with *lazy/decentralized metadata*
// (BatchFS, GekkoFS) that publishes namespace updates only at
// synchronization boundaries?

#include <iostream>

#include "bench_common.hpp"
#include "pfsem/core/metadata_conflict.hpp"

int main() {
  using namespace pfsem;
  using bench::analyze_app;

  bench::heading(
      "Extension: cross-process namespace dependencies per configuration");
  Table t({"Configuration", "deps", "hard", "not MPI-ordered",
           "hard not ordered", "lazy-metadata safe?"});
  bool all_intra_job_safe = true;
  for (const auto& info : apps::registry()) {
    const auto cfg = bench::paper_scale();
    const auto bundle = apps::run_app(info, cfg);
    const core::HappensBefore hb(trace::decode_comm(bundle.comm, cfg.nranks),
                                 cfg.nranks);
    const auto rep = core::detect_metadata_dependencies(bundle, &hb);
    t.add_row({info.name, std::to_string(rep.cross_process),
               std::to_string(rep.hard_cross_process),
               std::to_string(rep.unsynchronized),
               std::to_string(rep.hard_unsynchronized),
               rep.metadata_independent()
                   ? "yes (independent)"
                   : (rep.lazy_metadata_safe() ? "yes (synchronized)" : "NO")});
    all_intra_job_safe &= rep.lazy_metadata_safe();
  }
  t.print(std::cout);
  std::cout
      << "\nFinding: every single-job configuration either has no "
         "cross-process namespace dependencies or has them ordered by its "
         "own MPI synchronization — so (matching the paper's observation "
         "about GekkoFS/BatchFS) relaxed *metadata* consistency that "
         "publishes on sync boundaries is sufficient for all of them: "
      << (all_intra_job_safe ? "CONFIRMED" : "VIOLATED") << "\n";
  return all_intra_job_safe ? 0 : 1;
}
