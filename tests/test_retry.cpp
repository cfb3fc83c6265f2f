// The POSIX façade's retry awaitable, outcome by outcome: first-try
// success, a transient error then success, a failover redirect, a give-up
// and a crash at the op boundary. A scripted backend fails chosen
// attempts and charges fixed costs, so every simulated time below is
// exact: a path that skipped or double-charged an attempt's cost or a
// backoff would move one of them. Each outcome also runs with the cost
// ledger on and off, which must not change the trace or the clock.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pfsem/fault/injector.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem::iolib {
namespace {

constexpr SimDuration kMetaCost = 100;  // every non-pwrite op
constexpr SimDuration kOkCost = 1000;   // a pwrite that succeeds
constexpr SimDuration kFailCost = 300;  // a pwrite that carries an errno
constexpr std::uint64_t kBytes = 4096;

/// A Pfs whose pwrite attempts fail with scripted errnos, one per attempt
/// (0 = let it through), and whose every op costs a fixed amount.
class ScriptedFs final : public vfs::FileSystem {
 public:
  explicit ScriptedFs(std::deque<int> script) : script_(std::move(script)) {}

  /// Simulated times at which pwrite attempts were issued.
  std::vector<SimTime> attempts;

  vfs::OpenResult open(Rank r, const std::string& path, int flags,
                       SimTime now) override {
    auto res = inner_.open(r, path, flags, now);
    res.cost = kMetaCost;
    return res;
  }
  vfs::MetaResult close(Rank r, int fd, SimTime now) override {
    return fixed(inner_.close(r, fd, now));
  }
  vfs::WriteResult write(Rank r, int fd, std::uint64_t count,
                         SimTime now) override {
    auto res = inner_.write(r, fd, count, now);
    res.cost = kMetaCost;
    return res;
  }
  vfs::WriteResult pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                          SimTime now) override {
    attempts.push_back(now);
    int err = 0;
    if (!script_.empty()) {
      err = script_.front();
      script_.pop_front();
    }
    if (err != 0) return {.cost = kFailCost, .err = err};
    auto res = inner_.pwrite(r, fd, off, count, now);
    res.cost = kOkCost;
    return res;
  }
  vfs::ReadResult read(Rank r, int fd, std::uint64_t count,
                       SimTime now) override {
    auto res = inner_.read(r, fd, count, now);
    res.cost = kMetaCost;
    return res;
  }
  vfs::ReadResult pread(Rank r, int fd, Offset off, std::uint64_t count,
                        SimTime now) override {
    auto res = inner_.pread(r, fd, off, count, now);
    res.cost = kMetaCost;
    return res;
  }
  vfs::MetaResult lseek(Rank r, int fd, std::int64_t delta, int whence,
                        SimTime now) override {
    return fixed(inner_.lseek(r, fd, delta, whence, now));
  }
  vfs::MetaResult fsync(Rank r, int fd, SimTime now) override {
    return fixed(inner_.fsync(r, fd, now));
  }
  vfs::MetaResult ftruncate(Rank r, int fd, Offset length,
                            SimTime now) override {
    return fixed(inner_.ftruncate(r, fd, length, now));
  }
  vfs::MetaResult stat(const std::string& path, SimTime now) override {
    return fixed(inner_.stat(path, now));
  }
  vfs::MetaResult access(const std::string& path, SimTime now) override {
    return fixed(inner_.access(path, now));
  }
  vfs::MetaResult unlink(const std::string& path, SimTime now) override {
    return fixed(inner_.unlink(path, now));
  }
  vfs::MetaResult mkdir(const std::string& path, SimTime now) override {
    return fixed(inner_.mkdir(path, now));
  }
  vfs::MetaResult rename(const std::string& from, const std::string& to,
                         SimTime now) override {
    return fixed(inner_.rename(from, to, now));
  }
  void preload(const std::string& path, Offset size) override {
    inner_.preload(path, size);
  }
  void set_fault_injector(fault::Injector* injector) override {
    inner_.set_fault_injector(injector);
  }
  std::vector<vfs::VersionTag> crash_rank(Rank r, SimTime now) override {
    return inner_.crash_rank(r, now);
  }
  [[nodiscard]] SimDuration meta_latency() const override {
    return kMetaCost;
  }
  [[nodiscard]] vfs::CostSnapshot cost_snapshot() const override {
    return inner_.cost_snapshot();
  }

 private:
  static vfs::MetaResult fixed(vfs::MetaResult res) {
    res.cost = kMetaCost;
    return res;
  }

  vfs::Pfs inner_;
  std::deque<int> script_;
};

/// What one rank's open → pwrite → close program left behind.
struct Outcome {
  std::vector<SimTime> attempts;  ///< relative to the program's start
  std::optional<SimTime> pwrite_end;  ///< relative; unset if it threw
  std::string error;                  ///< what() of a pfsem::Error
  SimTime end = 0;                    ///< engine clock after run()
  int killed = 0;
  std::vector<trace::Record> records;
  std::string trace;  ///< the whole bundle, compact-encoded
  obs::Ledger::Cell write_cell;
  fault::FaultStats stats;
};

struct Scenario {
  std::deque<int> script{};
  RetryPolicy policy;
  /// Crash rank 0 at this absolute time (unset = no crash).
  std::optional<SimTime> crash_at{};
  /// Idle this long before the pwrite (to start it after a crash).
  SimDuration idle = 0;
};

Outcome run(const Scenario& s, bool ledger) {
  sim::Engine engine;
  trace::Collector collector(1);
  mpi::World world(engine, collector,
                   mpi::WorldConfig{.nranks = 1, .ranks_per_node = 1});
  ScriptedFs fs(s.script);
  fault::Injector injector(fault::FaultPlan{}, /*seed=*/1, 1);
  obs::Run orun(obs::Config{.ledger = ledger});
  PosixIo posix({.engine = &engine,
                 .world = &world,
                 .pfs = &fs,
                 .collector = &collector,
                 .injector = &injector,
                 .retry = s.policy,
                 .obs = &orun});
  Outcome out;
  if (s.crash_at) {
    engine.spawn([](sim::Engine& e, fault::Injector& inj,
                    SimTime t) -> sim::Task<void> {
      co_await e.delay(t);
      inj.mark_crashed(0, e.now());
    }(engine, injector, *s.crash_at));
  }
  engine.spawn([](sim::Engine& e, PosixIo& io, SimDuration idle,
                  Outcome& o) -> sim::Task<void> {
    const int fd = co_await io.open(0, "f", trace::kCreate | trace::kRdWr);
    co_await e.delay(idle);
    const SimTime t0 = e.now();
    try {
      co_await io.pwrite(0, fd, 0, kBytes);
      o.pwrite_end = e.now() - t0;
    } catch (const Error& err) {
      o.error = err.what();
      co_return;
    }
    co_await io.close(0, fd);
  }(engine, posix, s.idle, out));
  engine.run();
  out.end = engine.now();
  out.killed = engine.killed_roots();
  // Attempt times relative to the pwrite's start: open, then the idle.
  for (const SimTime t : fs.attempts) {
    out.attempts.push_back(t - kMetaCost - s.idle);
  }
  const trace::TraceBundle bundle = collector.take();
  out.records = bundle.records;
  std::ostringstream os;
  trace::write_compact(bundle, os);
  out.trace = os.str();
  orun.ledger.for_each([&](FileId, const obs::Ledger::Entry& e) {
    out.write_cell = e.cells[static_cast<std::size_t>(obs::OpClass::Write)];
  });
  out.stats = injector.stats();
  return out;
}

/// Run `s` with the ledger on and off: the trace and every time match.
Outcome run_both(const Scenario& s) {
  Outcome on = run(s, true);
  const Outcome off = run(s, false);
  EXPECT_EQ(on.trace, off.trace) << "the ledger must not change the trace";
  EXPECT_EQ(on.end, off.end);
  EXPECT_EQ(on.attempts, off.attempts);
  EXPECT_EQ(on.pwrite_end, off.pwrite_end);
  EXPECT_EQ(on.stats, off.stats);
  EXPECT_EQ(off.write_cell.ops, 0u) << "ledger off records nothing";
  return on;
}

const trace::Record* find(const Outcome& o, trace::Func f) {
  for (const auto& r : o.records) {
    if (r.func == f) return &r;
  }
  return nullptr;
}

RetryPolicy retrying(int attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.backoff = 20'000;
  p.multiplier = 3.0;
  p.failover_backoff = 70'000;
  return p;
}

TEST(RetryAwaitable, FirstTrySuccessChargesOneAttempt) {
  const Outcome o = run_both({.policy = retrying(3)});
  EXPECT_EQ(o.attempts, std::vector<SimTime>{0});
  EXPECT_EQ(o.pwrite_end, kOkCost);
  EXPECT_EQ(o.end, kMetaCost + kOkCost + kMetaCost);
  const trace::Record* w = find(o, trace::Func::pwrite);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->tstart, kMetaCost);
  EXPECT_EQ(w->tend, kMetaCost + kOkCost);
  EXPECT_EQ(w->count, kBytes);
  EXPECT_EQ(w->ret, static_cast<std::int64_t>(kBytes));
  EXPECT_EQ(o.records.size(), 3u) << "open, pwrite, close";
  EXPECT_EQ(o.write_cell.ops, 1u);
  EXPECT_EQ(o.write_cell.stall_ns, static_cast<std::uint64_t>(kOkCost));
  EXPECT_EQ(o.write_cell.retries, 0u);
  EXPECT_EQ(o.write_cell.failovers, 0u);
  EXPECT_EQ(o.stats.retries, 0u);
}

TEST(RetryAwaitable, TransientErrorsThenSuccess) {
  const RetryPolicy p = retrying(3);
  const Outcome o =
      run_both({.script = {fault::kEio, fault::kEnospc}, .policy = p});
  const SimTime second = kFailCost + p.backoff_for(1);
  const SimTime third = second + kFailCost + p.backoff_for(2);
  EXPECT_EQ(o.attempts, (std::vector<SimTime>{0, second, third}));
  EXPECT_EQ(o.pwrite_end, third + kOkCost);
  EXPECT_EQ(o.end, kMetaCost + third + kOkCost + kMetaCost);
  const trace::Record* w = find(o, trace::Func::pwrite);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->tstart, kMetaCost) << "one record, stamped at the first try";
  EXPECT_EQ(w->tend, kMetaCost + third + kOkCost);
  EXPECT_EQ(o.records.size(), 3u);
  EXPECT_EQ(o.write_cell.retries, 2u);
  EXPECT_EQ(o.write_cell.failovers, 0u);
  EXPECT_EQ(o.write_cell.stall_ns,
            static_cast<std::uint64_t>(third + kOkCost));
  EXPECT_EQ(o.stats.retries, 2u);
  EXPECT_EQ(o.stats.giveups, 0u);
}

TEST(RetryAwaitable, FailoverRedirectThenSuccess) {
  // The redirect has its own budget: max_attempts 1 still allows it.
  const RetryPolicy p = retrying(1);
  const Outcome o = run_both({.script = {fault::kEhostdown}, .policy = p});
  const SimTime second = kFailCost + p.failover_backoff;
  EXPECT_EQ(o.attempts, (std::vector<SimTime>{0, second}));
  EXPECT_EQ(o.pwrite_end, second + kOkCost);
  const trace::Record* w = find(o, trace::Func::pwrite);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->tend - w->tstart, second + kOkCost);
  EXPECT_EQ(o.write_cell.retries, 0u);
  EXPECT_EQ(o.write_cell.failovers, 1u);
  EXPECT_EQ(o.stats.failover_redirects, 1u);
  EXPECT_EQ(o.stats.retries, 0u);
}

TEST(RetryAwaitable, ExhaustedBudgetGivesUp) {
  const RetryPolicy p = retrying(2);
  const Outcome o =
      run_both({.script = {fault::kEio, fault::kEio}, .policy = p});
  const SimTime second = kFailCost + p.backoff_for(1);
  EXPECT_EQ(o.attempts, (std::vector<SimTime>{0, second}));
  EXPECT_FALSE(o.pwrite_end.has_value());
  EXPECT_NE(o.error.find("after 2 attempt(s)"), std::string::npos) << o.error;
  EXPECT_EQ(o.end, kMetaCost + second + kFailCost)
      << "the give-up waits out the last attempt's cost";
  EXPECT_EQ(find(o, trace::Func::pwrite), nullptr);
  EXPECT_EQ(o.write_cell.ops, 0u) << "a failed call records no ledger row";
  EXPECT_EQ(o.stats.retries, 1u);
  EXPECT_EQ(o.stats.giveups, 1u);
}

TEST(RetryAwaitable, NonRetryableErrnoGivesUpAfterOneAttempt) {
  const Outcome o = run_both({.script = {fault::kErofs}, .policy = retrying(5)});
  EXPECT_EQ(o.attempts, std::vector<SimTime>{0});
  EXPECT_NE(o.error.find("after 1 attempt(s)"), std::string::npos) << o.error;
  EXPECT_EQ(o.end, kMetaCost + kFailCost);
  EXPECT_EQ(o.stats.giveups, 1u);
}

TEST(RetryAwaitable, CrashBeforeTheOpIssuesNothing) {
  const Outcome o = run_both(
      {.policy = retrying(3), .crash_at = 5'000, .idle = 10'000});
  EXPECT_TRUE(o.attempts.empty()) << "the crash check runs before the issue";
  EXPECT_FALSE(o.pwrite_end.has_value());
  EXPECT_EQ(o.killed, 1);
  EXPECT_EQ(o.end, kMetaCost + 10'000);
  EXPECT_EQ(find(o, trace::Func::pwrite), nullptr);
  EXPECT_EQ(o.records.size(), 1u) << "only the open";
}

TEST(RetryAwaitable, CrashDuringBackoffStopsTheRetry) {
  const RetryPolicy p = retrying(3);
  // Rank 0 fails its first try at t=100 and backs off until
  // 100 + 300 + 20000; the crash lands in between.
  const Outcome o = run_both(
      {.script = {fault::kEio}, .policy = p, .crash_at = 10'000});
  EXPECT_EQ(o.attempts, std::vector<SimTime>{0});
  EXPECT_FALSE(o.pwrite_end.has_value());
  EXPECT_EQ(o.killed, 1);
  EXPECT_EQ(o.end, kMetaCost + kFailCost + p.backoff_for(1));
  EXPECT_EQ(find(o, trace::Func::pwrite), nullptr);
  EXPECT_EQ(o.stats.retries, 1u);
  EXPECT_EQ(o.stats.giveups, 0u);
}

}  // namespace
}  // namespace pfsem::iolib
