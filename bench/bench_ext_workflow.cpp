// EXTENSION bench (paper Sections 3.5 & 7): multi-application workflows.
// Two jobs share the PFS with no MPI channel between them: a simulation
// writes snapshots, an analysis job polls for completion markers and
// reads them. We compare the pipelined discipline (open after the marker
// appears) against the eager anti-pattern (pre-opened files), for both
// data semantics (conflict detector) and metadata semantics (namespace-
// dependency detector).

#include <iostream>

#include "bench_common.hpp"
#include "pfsem/apps/programs.hpp"
#include "pfsem/core/metadata_conflict.hpp"

namespace {

using namespace pfsem;

struct WorkflowResult {
  core::ConflictReport data;
  core::MetadataConflictReport meta;
};

WorkflowResult run(bool pipelined) {
  apps::AppConfig cfg = bench::paper_scale();
  apps::Harness h(cfg);
  apps::run_workflow(h, pipelined);
  const auto bundle = h.finish();
  WorkflowResult out;
  out.data = core::detect_conflicts(core::reconstruct_accesses(bundle));
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, cfg.nranks),
                               cfg.nranks);
  out.meta = core::detect_metadata_dependencies(bundle, &hb);
  return out;
}

std::string classes(const core::ConflictMatrix& m) {
  std::string s;
  if (m.waw_s) s += "WAW-S ";
  if (m.waw_d) s += "WAW-D ";
  if (m.raw_s) s += "RAW-S ";
  if (m.raw_d) s += "RAW-D ";
  return s.empty() ? "-" : s;
}

}  // namespace

int main() {
  bench::heading("Extension: producer/analysis workflow coupled via the PFS");
  Table t({"discipline", "session conflicts", "commit conflicts",
           "weakest data model", "ns deps (hard)", "MPI-ordered?",
           "lazy-metadata safe?"});
  const auto pipelined = run(true);
  const auto eager = run(false);
  for (const auto& [name, r] :
       {std::pair{"pipelined (open after marker)", &pipelined},
        std::pair{"eager (pre-opened files)", &eager}}) {
    const auto advice = core::advise(r->data);
    t.add_row({name, classes(r->data.session), classes(r->data.commit),
               vfs::to_string(advice.weakest),
               std::to_string(r->meta.cross_process) + " (" +
                   std::to_string(r->meta.hard_cross_process) + ")",
               r->meta.unsynchronized == 0 ? "yes" : "NO",
               r->meta.lazy_metadata_safe() ? "yes" : "NO"});
  }
  t.print(std::cout);

  const bool ok =
      // Pipelined: close->open chains make session data semantics enough...
      !pipelined.data.session.raw_d && !pipelined.data.session.waw_d &&
      // ...but the cross-job namespace dependency is NOT MPI-ordered: the
      // workflow needs the PFS to publish metadata (or strong metadata).
      pipelined.meta.cross_process > 0 && !pipelined.meta.lazy_metadata_safe() &&
      // Eager: stale sessions create cross-process RAW conflicts...
      eager.data.session.raw_d &&
      // ...which a commit by the producer (its close) clears.
      !eager.data.commit.raw_d;
  std::cout
      << "\nFindings (extension of the paper's future-work direction):\n"
         "  * pipelined workflows satisfy the session-semantics condition "
         "for data (every write is separated from its reader by close->"
         "open), so burst-buffer PFSs with session/commit semantics can "
         "host them;\n"
         "  * but their job-to-job coupling lives in *metadata* (the "
         "completion marker), which no MPI synchronization orders — they "
         "need metadata that becomes visible without an intra-job sync "
         "boundary (strong or flush-on-close metadata);\n"
         "  * pre-opening input files breaks the session condition and "
         "upgrades the data requirement to commit semantics.\n"
      << (ok ? "SHAPE OK\n" : "SHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
