// Integration tests: run every application configuration end-to-end
// through the simulated stack and check the analysis results against the
// paper's ground truth (Table 3 classes, Table 4 conflict classes, the
// Section 6.3 commit-semantics observation, race-freedom).

#include <gtest/gtest.h>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/pattern.hpp"

namespace pfsem {
namespace {

apps::AppConfig small_config() {
  apps::AppConfig cfg;
  cfg.nranks = 16;  // small scale for test speed; scale invariance is
  cfg.ranks_per_node = 4;  // covered by ScaleInvariance below
  cfg.bytes_per_rank = 64 * 1024;
  return cfg;
}

struct RunResult {
  core::ConflictReport report;
  core::HighLevelPattern pattern;
  core::Advice advice;
  core::RaceCheck races;
};

RunResult analyze(const apps::AppInfo& info, apps::AppConfig cfg) {
  auto bundle = apps::run_app(info, cfg);
  // Offset reconstruction is validated against simulator ground truth on
  // every app run — a strong end-to-end check of Section 5.1.
  auto log = core::reconstruct_accesses(
      bundle, {.validate_against_ground_truth = true});
  RunResult r;
  r.report = core::detect_conflicts(log);
  r.pattern = core::classify_high_level(log, cfg.nranks);
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, cfg.nranks),
                               cfg.nranks);
  r.races = core::validate_synchronization(r.report, hb);
  r.advice = core::advise(r.report, &hb);
  return r;
}

class AppCase : public ::testing::TestWithParam<int> {};

TEST_P(AppCase, MatchesPaperGroundTruth) {
  const auto& info = apps::registry()[static_cast<std::size_t>(GetParam())];
  SCOPED_TRACE(info.name);
  const auto result = analyze(info, small_config());

  // Table 4: conflict classes under session semantics.
  EXPECT_EQ(result.report.session.waw_s, info.expect.waw_s) << "WAW-S";
  EXPECT_EQ(result.report.session.waw_d, info.expect.waw_d) << "WAW-D";
  EXPECT_EQ(result.report.session.raw_s, info.expect.raw_s) << "RAW-S";
  EXPECT_EQ(result.report.session.raw_d, info.expect.raw_d) << "RAW-D";

  // Section 6.3: under commit semantics FLASH's conflicts disappear and
  // every other configuration keeps the same conflict classes.
  if (info.expect.commit_clears) {
    EXPECT_FALSE(result.report.commit.any())
        << "commit semantics should clear this app's conflicts";
  } else {
    EXPECT_EQ(result.report.commit.waw_s, info.expect.waw_s);
    EXPECT_EQ(result.report.commit.waw_d, info.expect.waw_d);
    EXPECT_EQ(result.report.commit.raw_s, info.expect.raw_s);
    EXPECT_EQ(result.report.commit.raw_d, info.expect.raw_d);
  }

  // Table 3: high-level class of the dominant output pattern.
  if (!info.expect.xy.empty()) {
    EXPECT_EQ(result.pattern.xy, info.expect.xy);
    EXPECT_EQ(std::string(core::to_string(result.pattern.layout)),
              info.expect.layout);
  }

  // Section 5.2 validation: every conflicting pair must be ordered by the
  // program's synchronization (race-free).
  EXPECT_EQ(result.races.racy, 0u)
      << result.races.checked << " pairs checked";
  EXPECT_TRUE(result.advice.race_free);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, AppCase,
    ::testing::Range(0, static_cast<int>(apps::registry().size())),
    [](const ::testing::TestParamInfo<int>& pinfo) {
      std::string name =
          apps::registry()[static_cast<std::size_t>(pinfo.param)].name;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// Headline result (abstract): with same-process conflicts handled by the
// PFS, every configuration except FLASH runs correctly under session
// semantics, and FLASH is fixed by commit semantics.
TEST(Headline, SixteenOfSeventeenRunUnderSessionSemantics) {
  int session_ok = 0, flash_configs = 0, commit_fixes_flash = 0;
  for (const auto& info : apps::registry()) {
    const auto result = analyze(info, small_config());
    const bool d_conflict =
        result.report.session.waw_d || result.report.session.raw_d;
    if (info.app == "FLASH") {
      ++flash_configs;
      EXPECT_TRUE(d_conflict) << info.name;
      if (!(result.report.commit.waw_d || result.report.commit.raw_d)) {
        ++commit_fixes_flash;
      }
    } else {
      EXPECT_FALSE(d_conflict) << info.name;
      ++session_ok;
    }
  }
  EXPECT_EQ(session_ok + flash_configs,
            static_cast<int>(apps::registry().size()));
  EXPECT_EQ(commit_fixes_flash, flash_configs);
}

// Section 6.1: the conflict pattern must not depend on scale.
TEST(ScaleInvariance, ConflictClassesStableAcrossRankCounts) {
  for (const char* name : {"FLASH-fbs", "NWChem", "LAMMPS-NetCDF", "ENZO"}) {
    const auto* info = apps::find_app(name);
    ASSERT_NE(info, nullptr);
    apps::AppConfig small = small_config();
    apps::AppConfig large = small_config();
    large.nranks = 64;
    large.ranks_per_node = 8;
    const auto a = analyze(*info, small);
    const auto b = analyze(*info, large);
    SCOPED_TRACE(name);
    EXPECT_EQ(a.report.session.waw_s, b.report.session.waw_s);
    EXPECT_EQ(a.report.session.waw_d, b.report.session.waw_d);
    EXPECT_EQ(a.report.session.raw_s, b.report.session.raw_s);
    EXPECT_EQ(a.report.session.raw_d, b.report.session.raw_d);
    EXPECT_EQ(a.pattern.xy, b.pattern.xy);
  }
}

}  // namespace
}  // namespace pfsem
