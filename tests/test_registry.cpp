// Tests for the application registry and end-to-end run reproducibility.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "pfsem/apps/registry.hpp"
#include "pfsem/trace/serialize.hpp"

namespace pfsem::apps {
namespace {

TEST(Registry, CoversSeventeenApplications) {
  std::set<std::string> applications;
  for (const auto& info : registry()) applications.insert(info.app);
  EXPECT_EQ(applications.size(), 17u) << "the paper studies 17 applications";
  EXPECT_EQ(registry().size(), 25u) << "in 25 (app, I/O library) configs";
}

TEST(Registry, NamesUniqueAndFindable) {
  std::set<std::string> names;
  for (const auto& info : registry()) {
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
    EXPECT_EQ(find_app(info.name), &info);
    EXPECT_FALSE(info.iolib.empty());
    EXPECT_FALSE(info.description.empty());
    EXPECT_TRUE(info.run != nullptr);
  }
  EXPECT_EQ(find_app("NoSuchApp"), nullptr);
}

TEST(Registry, TableFourHasSevenConflictingApplications) {
  std::set<std::string> conflicting;
  for (const auto& info : registry()) {
    if (info.expect.any_conflict()) conflicting.insert(info.app);
  }
  // FLASH, ENZO, NWChem, pF3D-IO, MACSio, GAMESS, LAMMPS (Table 4).
  EXPECT_EQ(conflicting.size(), 7u);
  EXPECT_TRUE(conflicting.contains("FLASH"));
  EXPECT_TRUE(conflicting.contains("LAMMPS"));
}

TEST(Registry, OnlyFlashHasCrossProcessConflicts) {
  for (const auto& info : registry()) {
    const bool d = info.expect.waw_d || info.expect.raw_d;
    EXPECT_EQ(d, info.app == "FLASH") << info.name;
    EXPECT_EQ(info.expect.commit_clears, info.app == "FLASH") << info.name;
  }
}

TEST(Registry, LammpsHasFiveBackends) {
  int lammps = 0;
  for (const auto& info : registry()) {
    if (info.app == "LAMMPS") ++lammps;
  }
  EXPECT_EQ(lammps, 5);
}

std::string serialized_run(const AppInfo& info, std::uint64_t seed) {
  AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.seed = seed;
  cfg.bytes_per_rank = 64 * 1024;
  const auto bundle = run_app(info, cfg);
  std::ostringstream os;
  trace::write_compact(bundle, os);
  return os.str();
}

TEST(Determinism, SameSeedSameTraceBitForBit) {
  for (const char* name : {"FLASH-fbs", "LAMMPS-ADIOS", "MACSio", "NWChem"}) {
    const auto* info = find_app(name);
    ASSERT_NE(info, nullptr);
    SCOPED_TRACE(name);
    EXPECT_EQ(serialized_run(*info, 7), serialized_run(*info, 7))
        << "simulation must be bit-reproducible";
  }
}

TEST(Determinism, DifferentSeedDifferentJitter) {
  const auto* info = find_app("FLASH-nofbs");
  EXPECT_NE(serialized_run(*info, 1), serialized_run(*info, 2))
      << "seeds drive workload shaping and jitter";
}

TEST(Determinism, RunsAreIsolated) {
  // Two runs back to back must not leak state into each other.
  const auto* info = find_app("LAMMPS-NetCDF");
  const auto first = serialized_run(*info, 3);
  (void)serialized_run(*find_app("MACSio"), 5);
  EXPECT_EQ(serialized_run(*info, 3), first);
}

}  // namespace
}  // namespace pfsem::apps
