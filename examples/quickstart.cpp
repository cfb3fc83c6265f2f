// Quickstart: simulate a tiny two-rank application, capture its I/O trace,
// and run the full consistency-semantics analysis on it.
//
//   $ ./quickstart
//
// The workload is the paper's canonical producer/consumer: rank 0 writes a
// restart file, both ranks synchronize with a barrier, rank 1 reads the
// file back *without* rank 0 having closed it — a RAW-D potential conflict
// that is real under session semantics and (because rank 0 fsyncs) clears
// under commit semantics.

#include <iostream>

#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/iolib/posix_io.hpp"

int main() {
  using namespace pfsem;

  // 1. Wire a simulated run: DES engine + MPI world + PFS + tracer.
  sim::Engine engine;
  trace::Collector collector(/*nranks=*/2);
  vfs::Pfs pfs;  // strong (POSIX) semantics by default
  mpi::World world(engine, collector, mpi::WorldConfig{.nranks = 2});
  iolib::PosixIo posix({.engine = &engine,
                        .world = &world,
                        .pfs = &pfs,
                        .collector = &collector});

  // 2. Describe each rank's program as a coroutine.
  auto producer = [&]() -> sim::Task<void> {
    const int fd = co_await posix.open(0, "restart.dat",
                                       trace::kCreate | trace::kRdWr);
    co_await posix.write(0, fd, 1 << 20);  // 1 MiB of state
    co_await posix.fsync(0, fd);           // commit, but no close yet
    co_await world.barrier(0);
    co_await posix.close(0, fd);
  };
  auto consumer = [&]() -> sim::Task<void> {
    const int fd = co_await posix.open(1, "restart.dat",
                                       trace::kCreate | trace::kRdWr);
    co_await world.barrier(1);
    co_await posix.pread(1, fd, 0, 1 << 20);
    co_await posix.close(1, fd);
  };
  engine.spawn(producer());
  engine.spawn(consumer());
  engine.run();

  // 3. Analyze the captured trace.
  const trace::TraceBundle bundle = collector.take();
  const core::AccessLog log = core::reconstruct_accesses(bundle);
  const core::ConflictReport report = core::detect_conflicts(log);
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, bundle.nranks),
                               bundle.nranks);
  const core::Advice advice = core::advise(report, &hb);

  std::cout << "trace records: " << bundle.records.size()
            << ", matched comm events: "
            << bundle.comm.collective_count + bundle.comm.p2p_count << "\n";
  std::cout << "overlapping write-involved pairs: " << report.potential_pairs
            << "\n";
  std::cout << "conflicts under session semantics: "
            << (report.session.any() ? "yes" : "no")
            << " (RAW-D=" << (report.session.raw_d ? "yes" : "no") << ")\n";
  std::cout << "conflicts under commit semantics:  "
            << (report.commit.any() ? "yes" : "no")
            << " (the fsync before the barrier is the commit)\n";
  for (const auto& c : report.conflicts) {
    std::cout << "  " << core::to_string(c.kind) << "-"
              << (c.same_process ? 'S' : 'D') << " on " << log.path(c.file) << ": rank "
              << c.first.rank << " wrote " << c.first.ext << " at "
              << to_seconds(c.first.t) << "s, rank " << c.second.rank << " "
              << core::to_string(c.second.type) << " at "
              << to_seconds(c.second.t) << "s"
              << (c.under_session ? " [session]" : "")
              << (c.under_commit ? " [commit]" : "") << "\n";
  }
  std::cout << "race-free: " << (advice.race_free ? "yes" : "NO") << "\n";
  std::cout << "weakest safe PFS model: " << vfs::to_string(advice.weakest)
            << "\n  rationale: " << advice.rationale << "\n";
  return 0;
}
