// pfsem::obs tests: deterministic metrics registry, log2 histograms,
// Chrome-trace export, and the two wiring contracts that matter —
//
//  1. The stable metrics dump is byte-identical across analysis thread
//     counts {1,2,4} AND schedulers {bucketed, heap}; it is the
//     diff-testable observability artifact.
//  2. Observability is a pure observer: a run with obs wired in produces
//     a byte-identical trace bundle to the same run without it.
//
// Plus: histogram bucket edge cases, spans surviving fault-injected
// crash runs, and the trace_event JSON schema keys.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/exec/pool.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/util/error.hpp"

namespace {

using namespace pfsem;

// --- registry basics -------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndDedupe) {
  obs::MetricsRegistry m;
  const auto c = m.counter("a.count");
  m.add(c);
  m.add(c, 41);
  EXPECT_EQ(m.value(c), 42u);

  // Re-registering the same name yields the same slot.
  const auto c2 = m.counter("a.count");
  EXPECT_EQ(c2.slot, c.slot);

  const auto g = m.gauge("a.gauge");
  m.set(g, -7);
  EXPECT_EQ(m.value(g), -7);

  // Same name with a different kind or stability is a wiring bug.
  EXPECT_THROW((void)m.gauge("a.count"), Error);
  EXPECT_THROW((void)m.counter("a.count", obs::Stability::Volatile), Error);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  // bucket_of is bit_width: 0 -> 0, [2^(k-1), 2^k) -> k, top bit -> 64.
  using R = obs::MetricsRegistry;
  EXPECT_EQ(R::bucket_of(0), 0u);
  EXPECT_EQ(R::bucket_of(1), 1u);
  EXPECT_EQ(R::bucket_of(2), 2u);
  EXPECT_EQ(R::bucket_of(3), 2u);
  EXPECT_EQ(R::bucket_of(4), 3u);
  EXPECT_EQ(R::bucket_of((std::uint64_t{1} << 62)), 63u);
  EXPECT_EQ(R::bucket_of((std::uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(R::bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(R::bucket_of(~std::uint64_t{0}), 64u);

  obs::MetricsRegistry m;
  const auto h = m.histogram("io.sizes");
  m.observe(h, 0);
  m.observe(h, 1);
  m.observe(h, ~std::uint64_t{0});  // overflow bucket; sum wraps (u64)
  EXPECT_EQ(m.count(h), 3u);
  EXPECT_EQ(m.bucket(h, 0), 1u);
  EXPECT_EQ(m.bucket(h, 1), 1u);
  EXPECT_EQ(m.bucket(h, R::kHistBuckets - 1), 1u);
  EXPECT_EQ(m.sum(h), 0u) << "1 + UINT64_MAX wraps to 0 deterministically";
}

TEST(MetricsRegistry, DumpSeparatesStableFromVolatile) {
  obs::MetricsRegistry m;
  m.add(m.counter("stable.one"), 5);
  m.add(m.counter("noisy.tier_hits", obs::Stability::Volatile), 9);

  std::ostringstream stable;
  m.dump(stable);
  EXPECT_NE(stable.str().find("counter stable.one 5"), std::string::npos);
  EXPECT_EQ(stable.str().find("noisy.tier_hits"), std::string::npos)
      << "volatile metrics must never enter the byte-diffable dump";

  std::ostringstream both;
  m.dump(both, /*include_volatile=*/true);
  EXPECT_NE(both.str().find("counter noisy.tier_hits 9"), std::string::npos);
}

// --- tracer / Chrome export ------------------------------------------------

TEST(Tracer, ChromeJsonCarriesRequiredKeys) {
  obs::Tracer t;
  t.complete({obs::kPidIo, 3}, "pwrite", 1'500, 2'000, {"bytes", 4096});
  t.instant({obs::kPidFault, 1}, "crash", 9'999);

  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  // The keys the trace_event format requires (CI validates with a real
  // JSON parser; this guards the schema at the unit level).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << "track metadata";
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  // ns -> us fixed-point: 1500 ns = 1.500 us, 2000 ns dur = 2.000 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
}

// --- the determinism contract ---------------------------------------------

/// One full simulate + analyze pass with observability on; returns the
/// stable metrics dump.
std::string stable_dump(int threads, bool heap) {
  obs::Run run(obs::Config{.metrics = true, .tracing = false});
  const auto* info = apps::find_app("pF3D-IO");
  EXPECT_NE(info, nullptr);
  apps::AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  if (heap) cfg.scheduler = sim::SchedulerKind::Heap;
  cfg.obs = &run;
  const auto bundle = apps::run_app(*info, cfg);

  // Analysis rides the work-stealing pool; its pool.* metrics are
  // volatile, so the stable dump must not depend on `threads`.
  exec::set_observer(&run);
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log, {}, threads);
  (void)core::detect_conflicts(log, pairs, {.threads = threads});
  exec::set_observer(nullptr);

  std::ostringstream os;
  run.metrics.dump(os);
  // The human-facing summary rides inside analysis output whose
  // byte-identity across --threads is a core guarantee, so it is held
  // to the same standard as the dump.
  os << obs::summary(run);
  return os.str();
}

TEST(ObsDeterminism, StableDumpIdenticalAcrossThreadsAndCapture) {
  const std::string baseline = stable_dump(/*threads=*/1, /*heap=*/false);
  EXPECT_NE(baseline.find("counter io.ops"), std::string::npos);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(stable_dump(threads, /*heap=*/false), baseline)
        << "threads=" << threads;
  }
  for (const int threads : {1, 4}) {
    EXPECT_EQ(stable_dump(threads, /*heap=*/true), baseline)
        << "heap scheduler, threads=" << threads;
  }
}

/// Serialize one GTC run, with or without observability wired in.
std::string run_bytes(obs::Run* run) {
  const auto* info = apps::find_app("GTC");
  EXPECT_NE(info, nullptr);
  apps::AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.obs = run;
  const auto bundle = apps::run_app(*info, cfg);
  std::ostringstream os;
  trace::write_compact(bundle, os);
  return os.str();
}

TEST(ObsDeterminism, ObservedRunProducesIdenticalBundle) {
  const std::string off = run_bytes(nullptr);
  obs::Run run(obs::Config{.metrics = true, .tracing = true});
  EXPECT_EQ(run_bytes(&run), off)
      << "wiring obs in must not perturb the simulation";
  EXPECT_GT(run.metrics.value(run.io_ops), 0u);
  EXPECT_GT(run.tracer.size(), 0u);

  // The cost ledger snapshots vfs counters around every facade call and
  // must stay a pure observer too (it reuses FileIds, never interns).
  obs::Run ledgered(
      obs::Config{.metrics = true, .tracing = false, .ledger = true});
  EXPECT_EQ(run_bytes(&ledgered), off)
      << "the cost-attribution ledger must not perturb the simulation";
  EXPECT_FALSE(ledgered.ledger.empty());
}

// --- spans survive fault-injected crash runs -------------------------------

TEST(ObsFaults, CrashRunEmitsFaultEventsAndKilledSpans) {
  obs::Run run(obs::Config{.metrics = true, .tracing = true});
  apps::AppConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 2;
  cfg.obs = &run;
  apps::Harness h(cfg);
  h.set_faults(fault::FaultPlan::parse("crash:rank=0,t=5ms"),
               /*fault_seed=*/7);
  iolib::PosixIo posix(h.ctx());

  h.run([&](Rank r) -> sim::Task<void> {
    const int fd = co_await posix.open(r, "data" + std::to_string(r),
                                       trace::kCreate | trace::kWrOnly);
    co_await posix.pwrite(r, fd, 0, 4096);
    co_await h.engine().delay(10'000'000);  // rank 0's crash lands here
    co_await posix.pwrite(r, fd, 4096, 4096);
    co_await posix.close(r, fd);
  });

  EXPECT_EQ(run.metrics.value(run.fault_crashes), 1u);
  EXPECT_EQ(run.metrics.value(run.sim_roots_killed), 1u);

  bool saw_crash_instant = false;
  bool saw_killed_span = false;
  bool saw_survivor_span = false;
  for (const auto& e : run.tracer.events()) {
    if (e.pid == obs::kPidFault && std::string_view(e.name) == "crash" &&
        e.tid == 0) {
      saw_crash_instant = true;
      EXPECT_EQ(e.ts, 5'000'000) << "crash instant carries the sim time";
    }
    if (e.pid == obs::kPidHarness &&
        std::string_view(e.name) == "rank-program") {
      const bool killed =
          e.a0.key != nullptr && std::string_view(e.a0.key) == "killed";
      if (e.tid == 0 && killed) saw_killed_span = true;
      if (e.tid == 1 && !killed) saw_survivor_span = true;
    }
  }
  EXPECT_TRUE(saw_crash_instant) << "injected fault must appear in the stream";
  EXPECT_TRUE(saw_killed_span) << "crashed rank still gets its span";
  EXPECT_TRUE(saw_survivor_span);
}

}  // namespace
