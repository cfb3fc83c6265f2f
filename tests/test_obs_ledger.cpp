// obs::Ledger / JSON export / obs-diff tests:
//
//  1. Ledger reduction semantics — order-independent sums, lowest-rank
//     hottest-rank tie-break, condense() freeing the rank dimension, and
//     the record-after-condense guard.
//  2. Early (window-retirement) vs late (export-time) condensation is
//     byte-identical: the reductions commute with interleaving.
//  3. The versioned JSON export format is pinned by fixture, and its
//     stable section is byte-identical across schedulers with the ledger
//     enabled.
//  4. obs-diff policy: exact on the stable section, threshold-gated on
//     volatile metrics and ledger rows, version exact, manifest informational.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "pfsem/apps/registry.hpp"
#include "pfsem/obs/diff.hpp"
#include "pfsem/obs/export.hpp"
#include "pfsem/obs/ledger.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/util/error.hpp"

namespace {

using namespace pfsem;

obs::LedgerOp op(obs::OpClass cls, FileId f, Rank r, SimDuration stall,
                 std::uint64_t bytes = 0) {
  obs::LedgerOp o;
  o.cls = cls;
  o.file = f;
  o.rank = r;
  o.stall_ns = stall;
  o.bytes = bytes;
  return o;
}

// --- ledger reduction semantics -------------------------------------------

TEST(Ledger, AccumulatesAndCondenses) {
  obs::Ledger led;
  led.record(op(obs::OpClass::Write, 0, 2, 100, 64));
  led.record(op(obs::OpClass::Write, 0, 1, 300, 32));
  led.record(op(obs::OpClass::Read, 0, 2, 50, 16));
  led.record(op(obs::OpClass::Meta, 3, 0, 10));
  EXPECT_EQ(led.touched_files(), 2u);
  EXPECT_GT(led.live_rank_cells(), 0u);

  led.condense_all();
  EXPECT_EQ(led.live_rank_cells(), 0u) << "condense frees the rank dimension";

  int seen = 0;
  led.for_each([&](FileId f, const obs::Ledger::Entry& e) {
    ++seen;
    if (f == 0) {
      EXPECT_EQ(e.ranks_touched, 2u);
      EXPECT_EQ(e.hottest_rank, 1);
      EXPECT_EQ(e.hottest_rank_stall_ns, 300);
      EXPECT_EQ(e.total_stall_ns(), 450u);
      EXPECT_EQ(e.total_ops(), 3u);
      const auto& w = e.cells[static_cast<std::size_t>(obs::OpClass::Write)];
      EXPECT_EQ(w.ops, 2u);
      EXPECT_EQ(w.bytes, 96u);
      EXPECT_EQ(w.stall_ns, 400u);
    } else {
      EXPECT_EQ(f, 3u);
      EXPECT_EQ(e.ranks_touched, 1u);
      EXPECT_EQ(e.hottest_rank, 0);
    }
  });
  EXPECT_EQ(seen, 2) << "for_each visits touched files only, in FileId order";
}

TEST(Ledger, HottestRankTieBreaksToLowestRank) {
  obs::Ledger led;
  led.record(op(obs::OpClass::Write, 0, 5, 200));
  led.record(op(obs::OpClass::Write, 0, 3, 200));
  led.record(op(obs::OpClass::Write, 0, 7, 200));
  led.condense(0);
  led.for_each([&](FileId, const obs::Ledger::Entry& e) {
    EXPECT_EQ(e.hottest_rank, 3) << "equal stalls resolve to the lowest rank";
  });
}

// A file many ranks touch, in scrambled order and with a strided rank
// set, grows the per-rank table well past its first size; its condensed
// summary must match a plain per-rank reduction.
TEST(Ledger, WideFileMatchesPerRankReduction) {
  obs::Ledger led;
  std::map<Rank, std::uint64_t> ref;
  for (int i = 0; i < 20'000; ++i) {
    const Rank r = static_cast<Rank>((i * 7919) % 2'503) * 8;
    const SimDuration stall = (i * 31) % 97;
    led.record(op(obs::OpClass::Write, 0, r, stall));
    ref[r] += static_cast<std::uint64_t>(stall);
  }
  EXPECT_EQ(led.live_rank_cells(), ref.size());
  Rank hottest = kNoRank;
  std::uint64_t hottest_stall = 0;
  for (const auto& [r, s] : ref) {  // ascending rank: first max wins ties
    if (hottest == kNoRank || s > hottest_stall) {
      hottest = r;
      hottest_stall = s;
    }
  }
  led.condense(0);
  led.for_each([&](FileId, const obs::Ledger::Entry& e) {
    EXPECT_EQ(e.ranks_touched, ref.size());
    EXPECT_EQ(e.hottest_rank, hottest);
    EXPECT_EQ(e.hottest_rank_stall_ns, hottest_stall);
  });
  EXPECT_EQ(led.live_rank_cells(), 0u);
}

TEST(Ledger, DropsNoFileAndGuardsCondensedFiles) {
  obs::Ledger led;
  led.record(op(obs::OpClass::Meta, kNoFile, 0, 10));
  EXPECT_TRUE(led.empty()) << "getcwd/umask-style ops carry no file";

  led.record(op(obs::OpClass::Write, 1, 0, 10));
  led.condense(1);
  EXPECT_THROW(led.record(op(obs::OpClass::Write, 1, 0, 10)), Error)
      << "a record after its file condensed means retirement fired too early";
}

// Early (per-file, mid-stream, interleaved) vs late (condense_all at
// export) condensation must agree byte for byte — this is what lets
// windowed runs free the rank dimension progressively while staying on
// the materialized oracle's bytes.
TEST(Ledger, EarlyAndLateCondensationAgree) {
  auto feed = [](obs::Ledger& led, bool early) {
    led.record(op(obs::OpClass::Write, 0, 1, 100, 8));
    led.record(op(obs::OpClass::Write, 1, 2, 70, 4));
    led.record(op(obs::OpClass::Sync, 0, 0, 40));
    if (early) led.condense(0);
    led.record(op(obs::OpClass::Read, 1, 0, 30, 2));
    if (early) led.condense(1);
    led.condense_all();  // idempotent on already-condensed files
  };
  obs::Ledger early, late;
  feed(early, true);
  feed(late, false);

  auto render = [](obs::Ledger& led) {
    obs::Run run(obs::Config{.metrics = true, .ledger = true});
    run.ledger = std::move(led);
    std::ostringstream os;
    obs::write_obs_json(os, run, {{"fixture", "early-vs-late"}});
    return os.str();
  };
  EXPECT_EQ(render(early), render(late));
}

// --- JSON export -----------------------------------------------------------

TEST(ObsExport, JsonStringEscapes) {
  std::ostringstream os;
  obs::write_json_string(os, "a\"b\\c\n\t\x01z");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
}

// The export format is versioned and pinned: any byte-level change to
// the layout below must bump kObsJsonVersion and update this fixture.
TEST(ObsExport, LedgerSectionPinnedByFixture) {
  obs::Run run(obs::Config{.metrics = true, .ledger = true});
  run.ledger.record(op(obs::OpClass::Write, 0, 1, 250, 128));
  run.ledger.record(op(obs::OpClass::Open, 0, 0, 30));
  run.ledger.note_path(0, "ckpt.h5");

  std::ostringstream os;
  obs::write_obs_json(os, run, {{"k", "v"}});
  const std::string json = os.str();

  const std::string head =
      "{\n"
      "\"pfsem_obs_version\": 1,\n"
      "\"manifest\": {\n"
      "  \"k\": \"v\"\n"
      "},\n"
      "\"stable\": {\n"
      "  \"ledger\": [\n";
  ASSERT_EQ(json.substr(0, head.size()), head);

  const std::string row =
      "    {\"file\": \"ckpt.h5\", \"id\": 0, \"ranks\": 2, "
      "\"hottest_rank\": 1, \"hottest_rank_stall_ns\": 250, \"classes\": "
      "{\"open\": {\"ops\": 1, \"stall_ns\": 30, \"bytes\": 0, "
      "\"lock_requests\": 0, \"lock_revocations\": 0, \"meta_rpcs\": 0, "
      "\"ost_bytes\": 0, \"retries\": 0, \"failovers\": 0}, "
      "\"write\": {\"ops\": 1, \"stall_ns\": 250, \"bytes\": 128, "
      "\"lock_requests\": 0, \"lock_revocations\": 0, \"meta_rpcs\": 0, "
      "\"ost_bytes\": 0, \"retries\": 0, \"failovers\": 0}}}\n";
  EXPECT_NE(json.find(row), std::string::npos) << json.substr(0, 2000);

  // The document round-trips through the diff parser (self-diff is clean).
  const auto self = obs::diff_obs_json(json, json, {});
  EXPECT_TRUE(self.ok);
  EXPECT_TRUE(self.regressions.empty());
}

/// One full simulated run with metrics + ledger; returns the export.
std::string obs_json(bool heap) {
  obs::Run run(obs::Config{.metrics = true, .ledger = true});
  const auto* info = apps::find_app("pF3D-IO");
  EXPECT_NE(info, nullptr);
  apps::AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  if (heap) cfg.scheduler = sim::SchedulerKind::Heap;
  cfg.obs = &run;
  (void)apps::run_app(*info, cfg);

  std::ostringstream os;
  obs::write_obs_json(os, run, {{"fixture", "invariance"}});
  return os.str();
}

/// Cut the "stable" section out of an export (manifest and volatile
/// metrics legitimately vary with the knobs).
std::string stable_section(const std::string& json) {
  const auto a = json.find("\"stable\"");
  const auto b = json.find("\"volatile\"");
  EXPECT_NE(a, std::string::npos);
  EXPECT_NE(b, std::string::npos);
  return json.substr(a, b - a);
}

TEST(ObsExport, StableSectionIdenticalAcrossSchedulers) {
  const std::string baseline = stable_section(obs_json(/*heap=*/false));
  EXPECT_NE(baseline.find("\"ledger\""), std::string::npos);
  EXPECT_EQ(stable_section(obs_json(/*heap=*/true)), baseline);
}

// --- obs-diff policy -------------------------------------------------------

std::string doc(const std::string& stable_counters,
                const std::string& vol_counters,
                const std::string& ledger = "",
                const std::string& version = "1",
                const std::string& manifest = "\"seed\": \"42\"") {
  return "{\n\"pfsem_obs_version\": " + version + ",\n\"manifest\": {\n  " +
         manifest + "\n},\n\"stable\": {\n  \"ledger\": [" + ledger +
         "],\n  \"counters\": {" + stable_counters +
         "},\n  \"gauges\": {},\n  \"hists\": {}\n},\n\"volatile\": {\n  "
         "\"counters\": {" +
         vol_counters + "},\n  \"gauges\": {},\n  \"hists\": {}\n}\n}\n";
}

TEST(ObsDiff, IdenticalDocumentsPass) {
  const std::string a = doc("\"io.ops\": 100", "\"sim.ring_pops\": 5");
  const auto res = obs::diff_obs_json(a, a, {});
  EXPECT_TRUE(res.ok);
}

TEST(ObsDiff, VersionMismatchIsTheOnlyRegressionReported) {
  const auto res = obs::diff_obs_json(doc("", ""), doc("", "", "", "2"), {});
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_NE(res.regressions[0].find("version"), std::string::npos);
}

TEST(ObsDiff, StableMetricsAreExactEvenBelowThreshold) {
  const auto res = obs::diff_obs_json(doc("\"io.ops\": 1000", ""),
                                      doc("\"io.ops\": 1001", ""), {});
  EXPECT_FALSE(res.ok) << "0.1% drift on a stable metric is still a "
                          "determinism break";
}

TEST(ObsDiff, VolatileMetricsAreThresholdGated) {
  // 4% under the default 5% gate: pass. 10%: regression.
  EXPECT_TRUE(obs::diff_obs_json(doc("", "\"sim.ring_pops\": 100"),
                                 doc("", "\"sim.ring_pops\": 104"), {})
                  .ok);
  EXPECT_FALSE(obs::diff_obs_json(doc("", "\"sim.ring_pops\": 100"),
                                  doc("", "\"sim.ring_pops\": 110"), {})
                   .ok);
  // A tighter explicit threshold flips the 4% case.
  EXPECT_FALSE(obs::diff_obs_json(doc("", "\"sim.ring_pops\": 100"),
                                  doc("", "\"sim.ring_pops\": 104"),
                                  {.threshold = 0.01})
                   .ok);
}

TEST(ObsDiff, LedgerRowsAreKeyedByFileAndGated) {
  auto row = [](const char* stall) {
    return std::string("{\"file\": \"a\", \"id\": 0, \"ranks\": 1, "
                       "\"hottest_rank\": 0, \"hottest_rank_stall_ns\": ") +
           stall + ", \"classes\": {\"write\": {\"ops\": 10, \"stall_ns\": " +
           stall + "}}}";
  };
  EXPECT_TRUE(obs::diff_obs_json(doc("", "", row("1000")),
                                 doc("", "", row("1030")), {})
                  .ok)
      << "3% stall drift on a cost row rides under the gate";
  const auto res = obs::diff_obs_json(doc("", "", row("1000")),
                                      doc("", "", row("1200")), {});
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.regressions.empty());
  EXPECT_NE(res.regressions[0].find("ledger a "), std::string::npos);

  // A row present in A but missing from B is a regression (and vice versa).
  EXPECT_FALSE(obs::diff_obs_json(doc("", "", row("1000")), doc("", ""), {})
                   .ok);
}

TEST(ObsDiff, ManifestDifferencesAreNotesNotRegressions) {
  const auto res = obs::diff_obs_json(
      doc("", "", "", "1", "\"seed\": \"42\""),
      doc("", "", "", "1", "\"seed\": \"43\""), {});
  EXPECT_TRUE(res.ok) << "the manifest records knobs, it never gates";
  EXPECT_FALSE(res.notes.empty());
}

TEST(ObsDiff, MalformedInputThrows) {
  EXPECT_THROW((void)obs::diff_obs_json("{", "{}", {}), Error);
  EXPECT_THROW((void)obs::diff_obs_json("{}", "{}", {}), Error)
      << "a document without pfsem_obs_version is not an obs export";
}

}  // namespace
