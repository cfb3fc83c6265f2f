// Integration tests for the multi-application workflow extension
// (Section 7 future work): data and metadata semantics requirements of
// simulation->analysis pipelines coupled only through the PFS.

#include <gtest/gtest.h>

#include "pfsem/apps/programs.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/metadata_conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"

namespace pfsem {
namespace {

struct WorkflowRun {
  core::ConflictReport data;
  core::MetadataConflictReport meta;
  core::Advice advice;
};

WorkflowRun run_workflow_case(bool pipelined, int nranks = 16) {
  apps::AppConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.bytes_per_rank = 64 * 1024;
  apps::Harness h(cfg);
  apps::run_workflow(h, pipelined);
  const auto bundle = h.finish();
  WorkflowRun out;
  out.data = core::detect_conflicts(core::reconstruct_accesses(
      bundle, {.validate_against_ground_truth = true}));
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, cfg.nranks),
                               cfg.nranks);
  out.meta = core::detect_metadata_dependencies(bundle, &hb);
  out.advice = core::advise(out.data);
  return out;
}

TEST(Workflow, PipelinedDataIsSessionSafe) {
  const auto r = run_workflow_case(true);
  EXPECT_FALSE(r.data.session.raw_d)
      << "close->open chains satisfy the session condition";
  EXPECT_FALSE(r.data.session.waw_d);
  EXPECT_NE(r.advice.weakest, vfs::ConsistencyModel::Strong);
}

TEST(Workflow, PipelinedNeedsVisibleMetadata) {
  const auto r = run_workflow_case(true);
  EXPECT_GT(r.meta.cross_process, 0u) << "marker files couple the jobs";
  EXPECT_GT(r.meta.hard_cross_process, 0u)
      << "consumers open snapshots another job created";
  EXPECT_GT(r.meta.unsynchronized, 0u)
      << "no MPI channel orders the two jobs";
  EXPECT_FALSE(r.meta.lazy_metadata_safe());
}

TEST(Workflow, EagerPreOpenNeedsCommitSemantics) {
  const auto r = run_workflow_case(false);
  EXPECT_TRUE(r.data.session.raw_d)
      << "stale consumer sessions miss the producers' writes";
  EXPECT_FALSE(r.data.commit.raw_d)
      << "the producers' closes are commits before the reads";
  EXPECT_EQ(r.advice.weakest, vfs::ConsistencyModel::Commit);
}

TEST(Workflow, ShapeStableAcrossScales) {
  const auto small = run_workflow_case(true, 8);
  const auto large = run_workflow_case(true, 32);
  EXPECT_EQ(small.data.session.raw_d, large.data.session.raw_d);
  EXPECT_EQ(small.meta.lazy_metadata_safe(), large.meta.lazy_metadata_safe());
}

}  // namespace
}  // namespace pfsem
