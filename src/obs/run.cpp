#include "pfsem/obs/obs.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "pfsem/util/table.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::obs {

Run::Run(Config c) : cfg(c) {
  const auto S = Stability::Stable;
  const auto V = Stability::Volatile;
  sim_events = metrics.counter("sim.events_dispatched", S);
  sim_roots = metrics.counter("sim.roots_spawned", S);
  sim_roots_killed = metrics.counter("sim.roots_killed", S);
  sim_end_time = metrics.gauge("sim.end_time_ns", S);
  sim_ring_pops = metrics.counter("sim.ring_pops", V);
  sim_heap_pops = metrics.counter("sim.heap_pops", V);
  sim_heap_scheduled = metrics.counter("sim.heap_scheduled", V);
  sim_compactions = metrics.counter("sim.bucket_compactions", V);

  trace_records = metrics.counter("trace.records", S);
  trace_files = metrics.gauge("trace.files_interned", S);
  trace_handoffs = metrics.counter("trace.stream_handoffs", V);
  trace_handoff_bytes = metrics.gauge("trace.handoff_bytes_peak", V);

  io_ops = metrics.counter("io.ops", S);
  io_reads = metrics.counter("io.reads", S);
  io_writes = metrics.counter("io.writes", S);
  io_meta = metrics.counter("io.meta_ops", S);
  io_read_bytes = metrics.counter("io.read_bytes", S);
  io_write_bytes = metrics.counter("io.write_bytes", S);
  io_read_size = metrics.histogram("io.read_size", S);
  io_write_size = metrics.histogram("io.write_size", S);
  io_retries = metrics.counter("io.retries", S);
  io_giveups = metrics.counter("io.giveups", S);

  mpi_p2p = metrics.counter("mpi.p2p_events", S);
  mpi_collectives = metrics.counter("mpi.collectives", S);

  vfs_lock_requests = metrics.gauge("vfs.lock_requests", S);
  vfs_lock_revocations = metrics.gauge("vfs.lock_revocations", S);
  vfs_meta_ops = metrics.gauge("vfs.meta_ops", S);
  vfs_ost_bytes = metrics.gauge("vfs.ost_bytes", S);
  vfs_compacted_writes = metrics.gauge("vfs.compacted_writes", S);
  vfs_compaction_passes = metrics.gauge("vfs.compaction_passes", S);

  window_live_files = metrics.gauge("window.live_files_peak", V);
  window_retired_accesses = metrics.gauge("window.retired_accesses", V);

  fault_transient = metrics.counter("fault.transient", S);
  fault_eio = metrics.counter("fault.eio", S);
  fault_enospc = metrics.counter("fault.enospc", S);
  fault_mpi_drops = metrics.counter("fault.mpi_drops", S);
  fault_slowdowns = metrics.counter("fault.slowed_transfers", S);
  fault_delays = metrics.counter("fault.delayed_writes", S);
  fault_crashes = metrics.counter("fault.crashes", S);
  fault_writes_lost = metrics.counter("fault.writes_lost", S);
  fault_server_crashes = metrics.counter("fault.server_crashes", S);
  fault_server_restarts = metrics.counter("fault.server_restarts", S);
  fault_failovers = metrics.counter("fault.mds_failovers", S);
  fault_redirects = metrics.counter("fault.failover_redirects", S);
  fault_degraded_reads = metrics.counter("fault.degraded_reads", S);
}

std::string summary(const Run& run) {
  const MetricsRegistry& m = run.metrics;
  std::ostringstream os;
  os << "== observability ==\n";
  os << "sim: " << m.value(run.sim_events) << " events dispatched, "
     << m.value(run.sim_roots) << " roots (" << m.value(run.sim_roots_killed)
     << " killed), end t=" << fmt(to_seconds(m.value(run.sim_end_time)), 6)
     << " s\n";
  os << "capture: " << m.value(run.trace_records) << " records, "
     << m.value(run.trace_files) << " files interned\n";
  os << "io: " << m.value(run.io_ops) << " ops (" << m.value(run.io_reads)
     << " reads / " << m.value(run.io_writes) << " writes / "
     << m.value(run.io_meta) << " metadata), " << m.value(run.io_read_bytes)
     << " B read, " << m.value(run.io_write_bytes) << " B written, "
     << m.value(run.io_retries) << " retries, " << m.value(run.io_giveups)
     << " give-ups\n";
  os << "mpi: " << m.value(run.mpi_p2p) << " p2p, "
     << m.value(run.mpi_collectives) << " collectives\n";
  os << "vfs: " << m.value(run.vfs_lock_requests) << " lock requests ("
     << m.value(run.vfs_lock_revocations) << " revocations), "
     << m.value(run.vfs_meta_ops) << " MDS round trips, "
     << m.value(run.vfs_ost_bytes) << " B across OSTs\n";
  if (run.cfg.ledger && !run.ledger.empty()) {
    // Top-N costliest files under the active consistency model, ranked by
    // attributed simulated stall. Everything here is ledger-derived and
    // Stable, so the block keeps the summary's byte-identity guarantees.
    struct Row {
      FileId f = kNoFile;
      const Ledger::Entry* e = nullptr;
      std::uint64_t stall = 0;
    };
    std::vector<Row> rows;
    rows.reserve(run.ledger.touched_files());
    run.ledger.for_each([&](FileId f, const Ledger::Entry& e) {
      rows.push_back({f, &e, e.total_stall_ns()});
    });
    // stable_sort keeps ascending-FileId order among equal stalls.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) { return a.stall > b.stall; });
    constexpr std::size_t kTop = 5;
    os << "cost: top files by attributed stall (" << rows.size()
       << " files attributed)\n";
    for (std::size_t i = 0; i < rows.size() && i < kTop; ++i) {
      const Ledger::Entry& e = *rows[i].e;
      std::uint64_t bytes = 0, locks = 0, rpcs = 0, retries = 0;
      for (const Ledger::Cell& c : e.cells) {
        bytes += c.bytes;
        locks += c.lock_requests;
        rpcs += c.meta_rpcs;
        retries += c.retries + c.failovers;
      }
      os << "  " << i + 1 << ". " << Ledger::display_name(rows[i].f, e)
         << " — " << fmt(to_seconds(static_cast<SimTime>(rows[i].stall)), 6)
         << " s stall, " << e.total_ops() << " ops, " << bytes << " B, "
         << locks << " lock rts, " << rpcs << " MDS RPCs";
      if (retries > 0) os << ", " << retries << " retries";
      os << "\n";
    }
  }
  const auto faults = m.value(run.fault_transient);
  const auto crashes = m.value(run.fault_crashes);
  const auto server_crashes = m.value(run.fault_server_crashes);
  if (faults == 0 && crashes == 0 && server_crashes == 0 &&
      m.value(run.fault_mpi_drops) == 0) {
    os << "faults: none\n";
  } else {
    os << "faults: " << faults << " transient (" << m.value(run.fault_eio)
       << " EIO, " << m.value(run.fault_enospc) << " ENOSPC), "
       << m.value(run.fault_mpi_drops) << " MPI drops, " << crashes
       << " crashes, " << m.value(run.fault_writes_lost) << " writes lost\n";
    if (server_crashes > 0) {
      os << "  servers: " << server_crashes << " crashed, "
         << m.value(run.fault_server_restarts) << " restarted, "
         << m.value(run.fault_failovers) << " MDS failovers, "
         << m.value(run.fault_redirects) << " redirected ops, "
         << m.value(run.fault_degraded_reads) << " degraded reads\n";
    }
    // Cite the exact injections when the tracer captured them, so a
    // degraded-mode report names what fired, not just how often.
    std::size_t cited = 0, total = 0;
    std::string cites;
    for (const auto& e : run.tracer.events()) {
      if (e.pid != kPidFault) continue;
      ++total;
      if (cited >= 8) continue;
      if (!cites.empty()) cites += "; ";
      cites += std::string(e.name) + " r" + std::to_string(e.tid) + " @" +
               fmt(to_seconds(e.ts), 6) + "s";
      ++cited;
    }
    if (total > 0) {
      os << "  fault events: " << cites;
      if (total > cited) os << "; ... " << total - cited << " more";
      os << "\n";
    }
  }
  // Deliberately nothing volatile here: the summary rides inside
  // analysis output whose byte-identity across both schedulers is a core
  // guarantee. Volatile metrics live in the include_volatile dump.
  return os.str();
}

}  // namespace pfsem::obs
